from dataclasses import replace

import numpy as np
import pytest

from specdiff import (
    DegradationSpec,
    LossContext,
    Observation,
    SpectralPrior,
    WeightSchedule,
    ddim_subsequence,
    degrade,
    ideal_triple,
    linear_ddpm_schedule,
    make_lpf,
    make_synthetic_prior,
    sample_prior,
    transfer_triple,
    triple_realization_loss,
    triples_loss,
    triples_loss_cotangents,
    weights_loss,
)
from specdiff.objective import batch_loss

from oracles import (
    DiagGaussian,
    output_distribution,
    random_prior_arrays,
    true_posterior,
    w2_diag,
    wiener_gain,
)


def _random_ctx(rng, d=8, S=6, kind="dps", sigma=None, K=1):
    mu_f, lam = random_prior_arrays(d, rng)
    prior = SpectralPrior(mu_f=mu_f, lambda0=lam)
    sigma = float(rng.uniform(0.1, 0.8)) if sigma is None else sigma
    spec = DegradationSpec(lambda_h=np.fft.fft(rng.standard_normal(d)), sigma_y=sigma)
    sched = ddim_subsequence(linear_ddpm_schedule(200), S)
    obs = tuple(
        degrade(sample_prior(prior, rng), spec, rng) for _ in range(K)
    )
    return LossContext(prior=prior, spec=spec, schedule=sched, sampler_kind=kind, observations=obs)


def _random_weights(rng, kind, S):
    if kind == "dps":
        return WeightSchedule.dps(rng.uniform(-1, 1, S))
    return WeightSchedule.pigdm(rng.uniform(-1, 1, S), rng.uniform(0, 1, S))


class TestW2Diag:
    def test_identical_distributions(self):
        g = DiagGaussian(mean=np.array([1 + 2j, 3 + 0j]), var=np.array([0.5, 2.0]))
        assert w2_diag(g, g) == 0.0

    def test_mean_shift_only(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        var = np.abs(rng.standard_normal(5))
        p = DiagGaussian(mean=np.zeros(5, complex), var=var)
        q = DiagGaussian(mean=v, var=var)
        assert np.isclose(w2_diag(p, q), np.linalg.norm(v))

    def test_scalar_variance_example(self):
        p = DiagGaussian(mean=np.zeros(1, complex), var=np.array([1.0]))
        q = DiagGaussian(mean=np.zeros(1, complex), var=np.array([4.0]))
        assert np.isclose(w2_diag(p, q), 1.0)

    def test_dim_mismatch_rejected(self):
        p = DiagGaussian(mean=np.zeros(2, complex), var=np.ones(2))
        q = DiagGaussian(mean=np.zeros(3, complex), var=np.ones(3))
        with pytest.raises(ValueError):
            w2_diag(p, q)


class TestWienerGain:
    def test_exact_inversion_without_noise(self):
        prior = SpectralPrior(mu_f=np.zeros(3, complex), lambda0=np.ones(3))
        spec = DegradationSpec(lambda_h=np.ones(3, complex), sigma_y=0.0)
        np.testing.assert_allclose(wiener_gain(prior, spec), np.ones(3))

    def test_blocked_bin_gain_is_zero(self):
        prior = make_synthetic_prior(8, 0.2)
        spec = make_lpf(8, 0.375, sigma_y=0.1)
        A = wiener_gain(prior, spec)
        assert np.all(A[spec.lambda_h == 0] == 0)

    def test_unit_snr_scalar_value(self):
        prior = SpectralPrior(mu_f=np.zeros(2, complex), lambda0=np.ones(2))
        h = np.array([1j, -1j])
        spec = DegradationSpec(lambda_h=h, sigma_y=1.0)
        np.testing.assert_allclose(wiener_gain(prior, spec), np.conj(h) / 2)

    def test_gain_never_over_inverts(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            mu_f, lam = random_prior_arrays(8, rng)
            prior = SpectralPrior(mu_f=mu_f, lambda0=lam)
            spec = DegradationSpec(
                lambda_h=np.fft.fft(rng.standard_normal(8)), sigma_y=rng.uniform(0.01, 1)
            )
            A = wiener_gain(prior, spec)
            assert np.all(np.abs(A * spec.lambda_h) <= 1 + 1e-12)

    def test_degenerate_bin_rejected(self):
        # A bin with no prior variance, no signal and no noise has no Wiener
        # gain; the package's losses refuse it rather than divide by zero.
        prior = SpectralPrior(mu_f=np.zeros(2, complex), lambda0=np.zeros(2))
        spec = DegradationSpec(lambda_h=np.zeros(2, complex), sigma_y=0.0)
        D = np.ones(2, complex)
        with pytest.raises(ValueError, match="degenerate"):
            triples_loss(D, D, D, prior, spec, None)
        ctx = LossContext(prior, spec, ddim_subsequence(linear_ddpm_schedule(100), 3))
        with pytest.raises(ValueError, match="degenerate"):
            weights_loss(WeightSchedule.dps(np.zeros(3)), ctx)


class TestDimensionChecks:
    # Each of these used to broadcast over the bins and return a loss: with
    # zero weights, 2.34 for the length-1 measurement and 8.81 for the
    # length-1 operator.
    def _model(self):
        prior = make_synthetic_prior(8, 0.2)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 4)
        return prior, make_lpf(8, 0.375, sigma_y=0.1), sched

    def test_measurement_of_another_length_rejected(self):
        prior, spec, sched = self._model()
        short = Observation(y_f=np.ones(1, complex))
        with pytest.raises(ValueError, match="measurement has length 1 but the prior has length 8"):
            LossContext(prior, spec, sched, "dps", (short,))
        triple = transfer_triple(WeightSchedule.dps(np.zeros(4)), prior, spec, sched)
        with pytest.raises(ValueError, match="measurement has length 1 but the prior has length 8"):
            triple_realization_loss(triple, prior, spec, short)

    def test_degradation_of_another_length_rejected(self):
        prior, _, sched = self._model()
        spec = DegradationSpec(lambda_h=np.ones(1, complex), sigma_y=0.1)
        with pytest.raises(ValueError, match="degradation has length 1 but the prior has length 8"):
            LossContext(prior, spec, sched, "dps", None)

    def test_mis_shaped_measurements_rejected(self):
        # A (1, 1) stack of ones used to broadcast over the 8 bins and score
        # 0.012275..., the loss of a (1, 8) stack of ones.
        prior, spec, sched = self._model()
        triple = ideal_triple(prior, spec, sched)
        assert np.isfinite(triples_loss(*triple, prior, spec, np.ones((1, 8))))
        for ys in (np.ones((1, 1)), np.ones((2, 9)), np.ones(8), np.ones((0, 8)), np.ones((1, 1, 8))):
            for loss in (triples_loss, triples_loss_cotangents):
                with pytest.raises(ValueError, match=r"not \(K, 8\) with K >= 1"):
                    loss(*triple, prior, spec, ys)

    def test_mis_shaped_triple_rejected(self):
        # A length-1 D1 used to broadcast over the bins and score 0.1161.
        prior, spec, sched = self._model()
        obs = Observation(y_f=np.ones(8, complex))
        D1, D2, D3 = ideal_triple(prior, spec, sched)
        for k, bad in enumerate([D1[:1], D2[:, None], np.append(D3, 0.0)], 1):
            triple = [D1, D2, D3]
            triple[k - 1] = bad
            with pytest.raises(ValueError, match=f"D{k} has shape"):
                triples_loss(*triple, prior, spec, None)
            with pytest.raises(ValueError, match=f"D{k} has shape"):
                triples_loss_cotangents(*triple, prior, spec, obs.y_f[None])
            with pytest.raises(ValueError, match=f"D{k} has shape"):
                triple_realization_loss(tuple(triple), prior, spec, obs)

    def test_degradation_of_another_length_rejected_by_the_triple_losses(self):
        prior, spec, sched = self._model()
        triple = ideal_triple(prior, spec, sched)
        short = DegradationSpec(lambda_h=np.ones(1, complex), sigma_y=0.1)
        for loss in (triples_loss, triples_loss_cotangents):
            with pytest.raises(ValueError, match="degradation has length 1 but the prior has length 8"):
                loss(*triple, prior, short, None)


class TestContextChecks:
    def test_unknown_kind_and_empty_observations_rejected(self):
        prior, spec, sched = TestDimensionChecks()._model()
        with pytest.raises(ValueError, match="unknown sampler kind: ideal"):
            LossContext(prior, spec, sched, "ideal")
        with pytest.raises(ValueError, match="need at least one observation"):
            LossContext(prior, spec, sched, "dps", ())

    def test_loss_of_another_samplers_weights_rejected(self):
        # A DPS context used to score PiGDM weights by PiGDM's loss and
        # "ideal" by the ideal sampler's.
        ctx = _random_ctx(np.random.default_rng(24), S=3)
        with pytest.raises(ValueError, match="weights do not match the context's sampler kind"):
            weights_loss(WeightSchedule.pigdm(np.ones(3), np.ones(3)), ctx)
        with pytest.raises(ValueError, match="weights do not match the context's sampler kind"):
            batch_loss("ideal", np.empty(0), ctx)


class TestRealizationLoss:
    def test_zero_at_perfectly_matched_triple(self):
        # Force D1 = sqrt(lambda_post), D2 = A, D3 = 1 - A h directly.
        rng = np.random.default_rng(2)
        ctx = _random_ctx(rng)
        obs = ctx.observations[0]
        post = true_posterior(ctx.prior, ctx.spec, obs)
        A = wiener_gain(ctx.prior, ctx.spec)
        triple = (np.sqrt(post.var).astype(complex), A, 1.0 - A * ctx.spec.lambda_h)
        assert triple_realization_loss(triple, ctx.prior, ctx.spec, obs) < 1e-20

    def test_equals_squared_w2_between_output_and_posterior(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            kind = "dps" if rng.random() < 0.5 else "pigdm"
            ctx = _random_ctx(rng, kind=kind)
            weights = _random_weights(rng, kind, ctx.schedule.S)
            loss = weights_loss(weights, ctx)
            triple = transfer_triple(weights, ctx.prior, ctx.spec, ctx.schedule)
            dist = output_distribution(triple, ctx.observations[0], ctx.prior)
            post = true_posterior(ctx.prior, ctx.spec, ctx.observations[0])
            w2sq = w2_diag(dist, post) ** 2
            assert np.isclose(loss, w2sq, rtol=1e-10, atol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            kind = "dps" if rng.random() < 0.5 else "pigdm"
            ctx = _random_ctx(rng, kind=kind)
            weights = _random_weights(rng, kind, ctx.schedule.S)
            assert weights_loss(weights, ctx) >= 0

    def test_monotone_information_for_ideal_sampler(self):
        # Shrinking the measurement noise (same signal and noise draw, rescaled)
        # never hurts the ideal sampler on the reference configuration.
        prior = make_synthetic_prior(50, 0.05)
        sched = ddim_subsequence(linear_ddpm_schedule(1000), 20)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x0 = sample_prior(prior, rng)
            n0 = rng.standard_normal(50)
            losses = []
            for sigma in (1.0, 0.5, 0.1, 0.01):
                spec = make_lpf(50, 0.5, sigma_y=sigma)
                y_f = spec.lambda_h * np.fft.fft(x0) + np.fft.fft(sigma * n0)
                obs = Observation(y_f=y_f)
                triple = ideal_triple(prior, spec, sched)
                losses.append(triple_realization_loss(triple, prior, spec, obs))
            assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))


class TestAveragedLoss:
    def test_zero_at_matched_triple(self):
        rng = np.random.default_rng(7)
        ctx = _random_ctx(rng)
        A = wiener_gain(ctx.prior, ctx.spec)
        post_var = true_posterior(
            ctx.prior, ctx.spec, ctx.observations[0]
        ).var
        D1 = np.sqrt(post_var).astype(complex)
        D3 = 1.0 - A * ctx.spec.lambda_h
        assert triples_loss(D1, A, D3, ctx.prior, ctx.spec, None) < 1e-20

    def test_analytic_matches_monte_carlo_average(self):
        rng = np.random.default_rng(8)
        base = _random_ctx(rng, d=8, S=5)
        weights = _random_weights(rng, "dps", base.schedule.S)
        analytic = weights_loss(weights, replace(base, observations=None))
        K = 100_000
        obs = tuple(
            degrade(sample_prior(base.prior, rng), base.spec, rng) for _ in range(K)
        )
        ctx = LossContext(
            prior=base.prior,
            spec=base.spec,
            schedule=base.schedule,
            sampler_kind="dps",
            observations=obs,
        )
        empirical = weights_loss(weights, ctx)
        assert np.isclose(empirical, analytic, rtol=0.02)

    def test_deterministic_setting_collapses_average_to_realization(self):
        # A near-deterministic prior under noiseless identity measurement: the
        # posterior is deterministic and the mean term loses its y dependence,
        # so the closed-form average coincides with the single-realization loss.
        d, S = 6, 4
        lam = np.full(d, 1e-30)
        prior = SpectralPrior(mu_f=np.fft.fft(np.full(d, 0.7)), lambda0=lam)
        spec = DegradationSpec(lambda_h=np.ones(d, complex), sigma_y=0.0)
        sched = ddim_subsequence(linear_ddpm_schedule(100), S)
        obs = Observation(y_f=spec.lambda_h * prior.mu_f)
        post = true_posterior(prior, spec, obs)
        np.testing.assert_allclose(post.var, np.zeros(d), atol=1e-30)
        np.testing.assert_allclose(post.mean, obs.y_f, atol=1e-12)
        rng = np.random.default_rng(9)
        weights = _random_weights(rng, "dps", S)
        ctx_one = LossContext(prior, spec, sched, "dps", (obs,))
        ctx_avg = LossContext(prior, spec, sched, "dps", None)
        assert np.isclose(
            weights_loss(weights, ctx_one),
            weights_loss(weights, ctx_avg),
            rtol=1e-9,
            atol=1e-20,
        )

    def test_empirical_with_one_observation_equals_realization(self):
        rng = np.random.default_rng(10)
        ctx = _random_ctx(rng, K=1)
        weights = _random_weights(rng, "dps", ctx.schedule.S)
        triple = transfer_triple(weights, ctx.prior, ctx.spec, ctx.schedule)
        want = triple_realization_loss(triple, ctx.prior, ctx.spec, ctx.observations[0])
        assert np.isclose(weights_loss(weights, ctx), want, rtol=1e-12, atol=0)

    def test_duplicated_observations_do_not_change_average(self):
        rng = np.random.default_rng(11)
        ctx = _random_ctx(rng, K=1)
        weights = _random_weights(rng, "dps", ctx.schedule.S)
        dup = LossContext(
            prior=ctx.prior,
            spec=ctx.spec,
            schedule=ctx.schedule,
            sampler_kind="dps",
            observations=ctx.observations * 3,
        )
        assert np.isclose(
            weights_loss(weights, dup),
            weights_loss(weights, ctx),
            rtol=1e-12,
        )

    def test_average_is_the_loss_at_the_mean_measurement_plus_its_covariance(self):
        # Per bin y ~ N(h mu, d (lam |h|^2 + sigma^2)) in DFT units, so the
        # closed-form average is the loss at the one measurement h mu plus the
        # covariance that M = D2 - A picks up; only c2 gains a term, cov * M.
        rng = np.random.default_rng(17)
        for d in (3, 8, 13):
            ctx = _random_ctx(rng, d=d)
            prior, spec = ctx.prior, ctx.spec
            D = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(3)]
            cov = d * (prior.lambda0 * np.abs(spec.lambda_h) ** 2 + spec.sigma_y**2)
            M = D[1] - wiener_gain(prior, spec)
            at_mean = (spec.lambda_h * prior.mu_f)[None]
            want = triples_loss(*D, prior, spec, at_mean) + np.sum(np.abs(M) ** 2 * cov)
            assert triples_loss(*D, prior, spec, None) == pytest.approx(want, rel=1e-12, abs=0)
            avg = triples_loss_cotangents(*D, prior, spec, None)
            c1, c2, c3 = triples_loss_cotangents(*D, prior, spec, at_mean)
            np.testing.assert_allclose(avg[0], c1, rtol=1e-12, atol=0)
            np.testing.assert_allclose(avg[1], c2 + cov * M, rtol=1e-12, atol=0)
            np.testing.assert_allclose(avg[2], c3, rtol=1e-12, atol=0)

    def test_small_empirical_average_near_analytic(self):
        rng = np.random.default_rng(12)
        base = _random_ctx(rng, d=8, S=5, K=100)
        weights = _random_weights(rng, "dps", base.schedule.S)
        analytic = weights_loss(weights, replace(base, observations=None))
        empirical = weights_loss(weights, base)
        assert np.isclose(empirical, analytic, rtol=0.25)


class TestBatchLoss:
    def test_pigdm_zero_covariance_bin_rejected(self):
        # Without measurement noise, r = 0 makes r^2 |h|^2 + sigma^2 vanish;
        # the packed-vector path must reject that like the weight-schedule loss.
        rng = np.random.default_rng(14)
        mu_f, lam = random_prior_arrays(8, rng, lam_floor=0.05)
        prior = SpectralPrior(mu_f=mu_f, lambda0=lam)
        spec = DegradationSpec(lambda_h=np.ones(8, complex), sigma_y=0.0)
        sched = ddim_subsequence(linear_ddpm_schedule(200), 6)
        obs = degrade(sample_prior(prior, rng), spec, rng)
        ctx = LossContext(prior, spec, sched, "pigdm", (obs,))
        zero_r = np.concatenate([np.ones(6), np.zeros(6)])
        with pytest.raises(ValueError, match="zero likelihood-covariance"):
            batch_loss("pigdm", zero_r, ctx)
        with pytest.raises(ValueError, match="zero likelihood-covariance"):
            weights_loss(WeightSchedule.pigdm(np.ones(6), np.zeros(6)), ctx)
        some_r = np.concatenate([np.ones(6), np.full(6, 0.1)])
        assert np.isfinite(batch_loss("pigdm", some_r, ctx))


class TestLossCotangents:
    def test_match_central_differences_in_each_component(self):
        # With c = dL/d conj(D), moving Re D by h changes L by 2 h Re c and
        # moving Im D by h changes it by 2 h Im c.
        rng = np.random.default_rng(15)
        base = _random_ctx(rng, d=6, K=3)
        h = 1e-6
        # Two random triples per mode, each (d,).
        for ys in (None, np.stack([o.y_f for o in base.observations])) * 2:
            D = [rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(3)]
            cot = triples_loss_cotangents(*D, base.prior, base.spec, ys)
            for k in range(3):
                for unit in (1.0, 1j):
                    fd = np.empty(6)
                    for b in range(6):
                        up = [X.copy() for X in D]
                        dn = [X.copy() for X in D]
                        up[k][b] += h * unit
                        dn[k][b] -= h * unit
                        fd[b] = (
                            triples_loss(*up, base.prior, base.spec, ys)
                            - triples_loss(*dn, base.prior, base.spec, ys)
                        ) / (2 * h)
                    exact = 2 * (cot[k].real if unit == 1.0 else cot[k].imag)
                    np.testing.assert_allclose(exact, fd, rtol=1e-5, atol=1e-6)

    def test_zero_d1_bin_has_zero_variance_cotangent(self):
        rng = np.random.default_rng(16)
        ctx = _random_ctx(rng, d=4)
        D = [np.zeros(4, complex), np.ones(4, complex), np.ones(4, complex)]
        c1, _, _ = triples_loss_cotangents(*D, ctx.prior, ctx.spec, None)
        np.testing.assert_array_equal(c1, 0.0)
