from dataclasses import replace

import numpy as np
import pytest

from specdiff import (
    DegradationSpec,
    Guidance,
    Observation,
    Schedule,
    SimConfig,
    SpectralPrior,
    StepTable,
    WeightSchedule,
    batch_triples,
    ddim_subsequence,
    degrade,
    ideal_triple,
    linear_ddpm_schedule,
    make_lpf,
    make_synthetic_prior,
    sample_prior,
    step_coeffs,
    transfer_triple,
)
from specdiff.objective import triple_realization_loss, triples_loss, triples_loss_cotangents

from oracles import (
    central_gradient,
    dense_map_denoiser,
    dense_operator_from_multiplier,
    dense_prior_denoiser,
    log_posterior,
    output_distribution,
    posterior_optimal_denoise,
    prior_optimal_denoise,
    random_prior_arrays,
    running_states,
    tweedie_pigdm_weights,
)


def _random_setup(rng, d=8, sigma=None, lam_floor=0.0):
    mu_f, lam = random_prior_arrays(d, rng, lam_floor=lam_floor)
    prior = SpectralPrior(mu_f=mu_f, lambda0=lam)
    lam_h = np.fft.fft(rng.standard_normal(d))
    sigma = float(rng.uniform(0.1, 1.0)) if sigma is None else sigma
    spec = DegradationSpec(lambda_h=lam_h, sigma_y=sigma)
    obs = degrade(sample_prior(prior, rng), spec, rng)
    return prior, spec, obs


def _reference_model():
    """Prior and degradation of the reference model: d = 50, l = 0.05, V = 0.5, sigma_y = 0.1."""
    return make_synthetic_prior(50, 0.05), make_lpf(50, 0.5, 0.1)


def all_steps(kind, theta, prior, spec, sched):
    """Every step's (G, Q, M) for one packed weight vector, each (d,), in step order s = 1..S."""
    return list(zip(*StepTable(kind, prior, spec, sched).step_arrays(theta)))


def one_step(kind, theta, prior, spec, sched, s):
    """(G, Q, M) of step s alone."""
    return all_steps(kind, theta, prior, spec, sched)[s - 1]


def at_step(S, s, value, fill=0.0):
    """Per-step weight vector holding value at step s and fill elsewhere."""
    vec = np.full(S, fill)
    vec[s - 1] = value
    return vec


def unroll(steps, x_f, y_f, mu_f):
    """Concrete step-by-step recursion over steps in step order, run from s = S down to 1."""
    x = x_f.copy()
    for G, Q, M in reversed(steps):
        x = G * x + Q * y_f + M * mu_f
    return x


class TestDenoisers:
    def test_prior_denoise_identity_at_full_signal(self):
        rng = np.random.default_rng(0)
        prior = make_synthetic_prior(8, 0.2)
        x_f = np.fft.fft(rng.standard_normal(8))
        np.testing.assert_allclose(prior_optimal_denoise(prior, x_f, 1.0), x_f, atol=1e-12)

    def test_prior_denoise_returns_mean_at_pure_noise(self):
        prior = make_synthetic_prior(8, 0.2, mu_const=1.5)
        x_f = np.fft.fft(np.random.default_rng(1).standard_normal(8))
        np.testing.assert_allclose(prior_optimal_denoise(prior, x_f, 0.0), prior.mu_f)

    def test_prior_denoise_matches_dense_solve(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            prior, spec, obs = _random_setup(rng)
            ab = float(rng.uniform(0.05, 0.95))
            x_t = rng.standard_normal(8)
            got = prior_optimal_denoise(prior, np.fft.fft(x_t), ab)
            Sigma0 = dense_operator_from_multiplier(prior.lambda0).real
            dense = dense_prior_denoiser(prior.mu_time(), Sigma0, x_t, ab)
            np.testing.assert_allclose(got, np.fft.fft(dense), atol=1e-10)

    def test_map_denoise_identity_at_full_signal(self):
        rng = np.random.default_rng(3)
        prior, spec, obs = _random_setup(rng, lam_floor=0.05)
        x_f = np.fft.fft(rng.standard_normal(8))
        got = posterior_optimal_denoise(prior, spec, obs.y_f, x_f, 1.0)
        np.testing.assert_allclose(got, x_f, atol=1e-9)

    def test_map_denoise_reduces_to_prior_denoise_at_huge_noise(self):
        rng = np.random.default_rng(4)
        prior, spec, obs = _random_setup(rng, sigma=0.3)
        x_f = np.fft.fft(rng.standard_normal(8))
        ab = 0.4
        got = posterior_optimal_denoise(prior, replace(spec, sigma_y=1e6), obs.y_f, x_f, ab)
        want = prior_optimal_denoise(prior, x_f, ab)
        np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_map_denoise_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            prior, spec, obs = _random_setup(rng)
            ab = float(rng.uniform(0.05, 0.95))
            x_t = rng.standard_normal(8)
            got = posterior_optimal_denoise(prior, spec, obs.y_f, np.fft.fft(x_t), ab)
            Sigma0 = dense_operator_from_multiplier(prior.lambda0).real
            H = dense_operator_from_multiplier(spec.lambda_h).real
            dense = dense_map_denoiser(
                prior.mu_time(), Sigma0, H, spec.sigma_y, obs.y_time(), x_t, ab
            )
            np.testing.assert_allclose(got, np.fft.fft(dense), atol=1e-10)

    def test_map_denoise_is_stationary_point_of_log_posterior(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            prior, spec, obs = _random_setup(rng, lam_floor=0.05)
            ab = float(rng.uniform(0.05, 0.95))
            x_t = rng.standard_normal(8)
            out = posterior_optimal_denoise(prior, spec, obs.y_f, np.fft.fft(x_t), ab)
            x_hat = np.fft.ifft(out).real
            Sigma0_inv = dense_operator_from_multiplier(1.0 / prior.lambda0).real
            H = dense_operator_from_multiplier(spec.lambda_h).real

            def neg_lp(x0):
                return -log_posterior(
                    x0, prior.mu_time(), Sigma0_inv, H, spec.sigma_y, obs.y_time(), x_t, ab
                )

            g_hat = central_gradient(neg_lp, x_hat)
            scale = np.linalg.norm(central_gradient(neg_lp, x_t)) + 1.0
            assert np.linalg.norm(g_hat) / scale < 1e-8


class TestWeightSchedule:
    def test_pigdm_parts_of_different_lengths_rejected(self):
        # 3 + 5 entries would pack into 8, which splits into two halves.
        with pytest.raises(ValueError, match="same length"):
            WeightSchedule.pigdm(np.ones(3), np.zeros(5))
        with pytest.raises(ValueError, match="same length"):
            WeightSchedule("pigdm", np.ones(7))

    @pytest.mark.parametrize("theta", [np.ones((2, 3)), np.float64(1.0)])
    def test_theta_that_is_not_1d_rejected(self, theta):
        with pytest.raises(ValueError, match="1-D"):
            WeightSchedule("dps", theta)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: WeightSchedule.dps([np.nan] * 4),
            lambda: WeightSchedule.dps([0.1, np.inf]),
            lambda: WeightSchedule.pigdm([1.0, 1.0], [0.5, np.nan]),
        ],
        ids=["zeta-nan", "zeta-inf", "r-nan"],
    )
    def test_non_finite_theta_rejected(self, build):
        # Each used to be accepted: NaN passes the r >= 0 test.
        with pytest.raises(ValueError, match="theta must be a finite, nonempty 1-D array"):
            build()

    @pytest.mark.parametrize("kind", ["ddpm", "ideal"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown sampler kind"):
            WeightSchedule(kind, np.ones(4))

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError, match="r must be nonnegative"):
            WeightSchedule.pigdm([1.0, 1.0], [0.0, -1e-300])
        WeightSchedule.pigdm([-1.0, -1.0], [0.0, 0.0])

    def test_fields_are_read_only_views_of_a_copy(self):
        zeta, g, r = np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0]), np.array([0.5, 0.0])
        dps, pigdm = WeightSchedule.dps(zeta), WeightSchedule.pigdm(g, r)
        zeta[0] = 9.0
        assert dps.theta.tolist() == [0.1, 0.2, 0.3] and dps.steps == 3
        assert pigdm.theta.tolist() == [1.0, 2.0, 0.5, 0.0] and pigdm.steps == 2
        for w, names in ((dps, ["zeta"]), (pigdm, ["g", "r"])):
            assert not w.theta.flags.writeable
            parts = [getattr(w, name) for name in names]
            assert all(np.shares_memory(part, w.theta) for part in parts)
            np.testing.assert_array_equal(np.concatenate(parts), w.theta)
        for w, name in ((dps, "g"), (dps, "r"), (pigdm, "zeta")):
            with pytest.raises(AttributeError):
                getattr(w, name)


class TestStepTransfers:
    def test_dps_zero_weight_is_prior_step(self):
        rng = np.random.default_rng(7)
        prior, spec, _ = _random_setup(rng)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 4)
        a, b, c, dd = (v[3 - 1] for v in step_coeffs(sched, prior))
        G, Q, M = one_step("dps", np.zeros(4), prior, spec, sched, 3)
        np.testing.assert_allclose(G, a + b * c)
        np.testing.assert_array_equal(Q, np.zeros(8))
        np.testing.assert_allclose(M, b * dd)

    def test_guidance_dead_on_unobserved_bins(self):
        prior = make_synthetic_prior(8, 0.2)
        spec = make_lpf(8, 0.375, sigma_y=0.1)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 4)
        a, b, c, dd = (v[2 - 1] for v in step_coeffs(sched, prior))
        G, Q, M = one_step("dps", at_step(4, 2, 0.8), prior, spec, sched, 2)
        blocked = spec.lambda_h == 0
        np.testing.assert_allclose(G[blocked], (a + b * c)[blocked])
        np.testing.assert_array_equal(Q[blocked], 0)
        np.testing.assert_allclose(M[blocked], (b * dd)[blocked])

    def test_pigdm_zero_gain_is_prior_step(self):
        rng = np.random.default_rng(8)
        prior, spec, _ = _random_setup(rng)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 4)
        a, b, c, _ = (v[2 - 1] for v in step_coeffs(sched, prior))
        theta = np.concatenate([np.zeros(4), np.full(4, 0.5)])
        G, Q, M = one_step("pigdm", theta, prior, spec, sched, 2)
        np.testing.assert_array_equal(Q, np.zeros(8))
        np.testing.assert_allclose(G, a + b * c)

    def test_pigdm_guidance_suppressed_by_huge_noise(self):
        rng = np.random.default_rng(9)
        prior, spec, _ = _random_setup(rng, sigma=1e6)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 4)
        theta = np.concatenate([at_step(4, 2, 1.0), np.full(4, 0.5)])
        G, Q, M = one_step("pigdm", theta, prior, spec, sched, 2)
        assert np.max(np.abs(Q)) < 1e-6

    def test_optimal_reduces_to_prior_step_at_huge_noise(self):
        rng = np.random.default_rng(10)
        prior, spec, _ = _random_setup(rng, sigma=1e8)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 4)
        s = 2
        G, Q, M = one_step("ideal", np.empty(0), prior, spec, sched, s)
        base_G, _, base_M = one_step("dps", np.zeros(4), prior, spec, sched, s)
        np.testing.assert_allclose(G, base_G, rtol=1e-6)
        np.testing.assert_allclose(M, base_M, rtol=1e-6)
        assert np.max(np.abs(Q)) < 1e-6

    def test_optimal_matches_dense_update(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            prior, spec, obs = _random_setup(rng)
            sched = ddim_subsequence(linear_ddpm_schedule(200), 6)
            s = int(rng.integers(1, 7))
            ab = sched.alpha_bar[s - 1]
            a, b = (v[s - 1] for v in step_coeffs(sched, prior)[:2])
            G, Q, M = one_step("ideal", np.empty(0), prior, spec, sched, s)
            x_s = rng.standard_normal(8)

            Sigma0 = dense_operator_from_multiplier(prior.lambda0).real
            H = dense_operator_from_multiplier(spec.lambda_h).real
            s2 = spec.sigma_y**2
            Sbar = (
                (1 - ab) * Sigma0 @ H.T @ H
                + s2 * ab * Sigma0
                + s2 * (1 - ab) * np.eye(8)
            )
            inv = np.linalg.inv(Sbar)
            dense_next = (
                a * x_s
                + b * inv @ (s2 * np.sqrt(ab) * Sigma0 @ x_s)
                + b * inv @ ((1 - ab) * Sigma0 @ H.T @ obs.y_time())
                + b * inv @ (s2 * (1 - ab) * prior.mu_time())
            )
            spectral_next = G * np.fft.fft(x_s) + Q * obs.y_f + M * prior.mu_f
            np.testing.assert_allclose(spectral_next, np.fft.fft(dense_next), atol=1e-10)

    def test_optimal_terminal_step_is_map_denoiser(self):
        # The last step (s = 1, next level 1) outputs the MAP estimate itself.
        rng = np.random.default_rng(11)
        prior, spec, obs = _random_setup(rng, lam_floor=0.05)
        sched = ddim_subsequence(linear_ddpm_schedule(200), 6)
        G, Q, M = one_step("ideal", np.empty(0), prior, spec, sched, 1)
        x_f = np.fft.fft(rng.standard_normal(8))
        want = posterior_optimal_denoise(prior, spec, obs.y_f, x_f, sched.alpha_bar[0])
        np.testing.assert_allclose(G * x_f + Q * obs.y_f + M * prior.mu_f, want, atol=1e-12)

    def test_pigdm_zero_covariance_bin_rejected(self):
        prior = make_synthetic_prior(8, 0.2)
        spec = make_lpf(8, 0.375, sigma_y=0.0)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 4)
        with pytest.raises(ValueError, match="zero likelihood-covariance"):
            all_steps("pigdm", np.concatenate([np.ones(4), np.zeros(4)]), prior, spec, sched)

    def test_unknown_kind_rejected(self):
        prior = make_synthetic_prior(8, 0.2)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 4)
        with pytest.raises(ValueError, match="unknown sampler kind"):
            batch_triples("ddpm", np.zeros(4), prior, make_lpf(8, 0.375, 0.1), sched)

    def test_degradation_of_another_length_rejected(self):
        # A length-1 operator used to broadcast over the d = 8 bins.
        prior = make_synthetic_prior(8, 0.2)
        spec = DegradationSpec(lambda_h=np.ones(1, complex), sigma_y=0.1)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 4)
        with pytest.raises(ValueError, match="degradation has length 1 but the prior has length 8"):
            StepTable("dps", prior, spec, sched)


class TestTimeDomainOracle:
    """Single guided updates in the time domain must match the spectral transfers."""

    def test_guided_steps_match_spectral_transfers(self):
        # Exercise each sampler's update on random interior steps: a two-step
        # schedule takes its noisiest step at a random level with random
        # weights, then its final step, and must match the two steps' triples
        # unrolled.
        from specdiff.simulator import _run_spectrum

        rng = np.random.default_rng(14)
        kinds = ["dps", "pigdm", "ideal"]
        for kind in kinds:
            for _ in range(100):
                d = int(rng.integers(2, 12))
                prior, spec, obs = _random_setup(rng, d=d)
                ab_prev = float(rng.uniform(0.05, 0.999))
                ab_s = float(rng.uniform(0.01, ab_prev - 1e-3))
                two = Schedule(alpha_bar=np.array([ab_prev, ab_s]))
                x_s = rng.standard_normal(d)
                if kind == "dps":
                    theta = [0.0, float(rng.uniform(-2, 2))]
                    guide = Guidance.fixed(WeightSchedule.dps(theta))
                elif kind == "pigdm":
                    theta = [0.0, float(rng.uniform(-2, 2)), 1.0, float(rng.uniform(0, 2))]
                    guide = Guidance.fixed(WeightSchedule.pigdm(theta[:2], theta[2:]))
                else:
                    theta = np.empty(0)
                    guide = Guidance.optimal()
                cfg = SimConfig(prior=prior, spec=spec, schedule=two, guidance=guide)
                Xf, _ = _run_spectrum(cfg, obs, x_s[None, :])
                X = np.fft.irfft(Xf.T, n=d, axis=-1)
                steps = all_steps(kind, np.asarray(theta, dtype=float), prior, spec, two)
                want = unroll(steps, np.fft.fft(x_s), obs.y_f, prior.mu_f)
                np.testing.assert_allclose(
                    np.fft.fft(X[0]), want, atol=1e-10 * max(1.0, np.max(np.abs(want)))
                )


class TestCompose:
    def test_single_step_passthrough(self):
        rng = np.random.default_rng(15)
        prior, spec, _ = _random_setup(rng, d=4)
        one = ddim_subsequence(linear_ddpm_schedule(100), 1)
        theta = rng.standard_normal(1)
        G, Q, M = one_step("dps", theta, prior, spec, one, 1)
        D1, D2, D3 = transfer_triple(WeightSchedule.dps(theta), prior, spec, one)
        np.testing.assert_array_equal(D1, G)
        np.testing.assert_array_equal(D2, Q)
        np.testing.assert_array_equal(D3, M)

    def test_two_step_hand_example_pins_ordering(self):
        # Steps are applied s=2 then s=1, so D1 = G(1) G(2) and
        # D2 = Q(1) + G(1) Q(2), not Q(2) + G(2) Q(1).  The table composes its
        # real multipliers, Q without conj(h), and applies conj(h) to D2 once.
        rng = np.random.default_rng(15)
        prior, spec, _ = _random_setup(rng)
        two = ddim_subsequence(linear_ddpm_schedule(100), 2)
        theta = np.array([0.7, 0.3])
        (G1, Q1, M1), (G2, Q2, M2) = zip(*StepTable("dps", prior, spec, two)._steps(theta)[0])
        D1, D2, D3 = transfer_triple(WeightSchedule.dps(theta), prior, spec, two)
        np.testing.assert_array_equal(D1, G1 * G2)
        np.testing.assert_array_equal(D2, (G1 * Q2 + Q1) * np.conj(spec.lambda_h))
        np.testing.assert_array_equal(D3, G1 * M2 + M1)
        (G1, Q1, M1), (G2, Q2, M2) = all_steps("dps", theta, prior, spec, two)
        assert not np.allclose(D2, G2 * Q1 + Q2)

    def test_pure_product_when_no_sources(self):
        rng = np.random.default_rng(16)
        prior, spec, _ = _random_setup(rng, d=5)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 4)
        steps = all_steps("dps", np.zeros(4), prior, spec, sched)
        D1, D2, D3 = transfer_triple(WeightSchedule.dps(np.zeros(4)), prior, spec, sched)
        Gs = [G for G, _, _ in steps]
        np.testing.assert_allclose(D1, np.prod(Gs, axis=0))
        np.testing.assert_array_equal(D2, np.zeros(5))
        # With no measurement source, D3 is the product-sum over the M terms.
        # Step s is followed by steps s - 1, ..., 1, the first s - 1 in step order.
        product_sum = sum(np.prod(Gs[: s - 1], axis=0) * M for s, (_, _, M) in enumerate(steps, 1))
        np.testing.assert_allclose(D3, product_sum)

    def test_empty_list_rejected(self):
        prior = make_synthetic_prior(8, 0.2)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 4)
        with pytest.raises(ValueError, match="must match the schedule"):
            batch_triples("dps", np.empty(0), prior, make_lpf(8, 0.375, 0.1), sched)

    def test_recursion_equals_closed_form_all_samplers(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            d = int(rng.integers(2, 16))
            prior, spec, obs = _random_setup(rng, d=d)
            S = int(rng.integers(1, 20))
            sched = ddim_subsequence(linear_ddpm_schedule(400), S)
            weight_sets = [
                WeightSchedule.dps(rng.uniform(-1, 1, sched.S)),
                WeightSchedule.pigdm(rng.uniform(-1, 1, sched.S), rng.uniform(0, 1, sched.S)),
            ]
            x_f = np.fft.fft(rng.standard_normal(d))
            for weights in weight_sets:
                steps = all_steps(weights.kind, weights.theta, prior, spec, sched)
                D1, D2, D3 = transfer_triple(weights, prior, spec, sched)
                direct = unroll(steps, x_f, obs.y_f, prior.mu_f)
                closed = D1 * x_f + D2 * obs.y_f + D3 * prior.mu_f
                np.testing.assert_allclose(
                    closed, direct, atol=1e-12 * max(1.0, np.max(np.abs(direct)))
                )
            steps = all_steps("ideal", np.empty(0), prior, spec, sched)
            D1, D2, D3 = ideal_triple(prior, spec, sched)
            direct = unroll(steps, x_f, obs.y_f, prior.mu_f)
            closed = D1 * x_f + D2 * obs.y_f + D3 * prior.mu_f
            np.testing.assert_allclose(
                closed, direct, atol=1e-12 * max(1.0, np.max(np.abs(direct)))
            )

    @pytest.mark.parametrize("kind", ["dps", "pigdm", "ideal"])
    def test_state_buffer_rows_equal_plain_recurrence(self, kind):
        # Row s of the forward sweep's buffer is the state before step s and
        # row 0 the output; every row carries the plain recurrence's bits, at
        # the reference size too.
        rng = np.random.default_rng(23)
        for S, (prior, spec) in (
            (1, _random_setup(rng)[:2]),
            (13, _random_setup(rng)[:2]),
            (200, _reference_model()),
        ):
            table = StepTable(kind, prior, spec, ddim_subsequence(linear_ddpm_schedule(1000), S))
            steps = table._steps(rng.uniform(0, 0.2, table.width))[0]
            assert table._sweep().tobytes() == running_states(*steps).tobytes()

    @pytest.mark.parametrize("kind", ["dps", "pigdm", "ideal"])
    def test_table_composes_in_float64(self, kind):
        # Every multiplier but Q is real and Q is conj(h) times a real array,
        # so the table and the state buffer are real even for a complex h;
        # step_arrays still hands out the complex Q.
        rng = np.random.default_rng(26)
        prior, spec, _ = _random_setup(rng)
        table = StepTable(kind, prior, spec, ddim_subsequence(linear_ddpm_schedule(1000), 9))
        theta = rng.uniform(0, 0.2, table.width)
        G, Q, M = table._steps(theta)[0]
        assert (G.dtype, Q.dtype, M.dtype) == (np.float64,) * 3
        assert table._sweep().dtype == np.float64
        _, Qc, _ = table.step_arrays(theta)
        assert Qc.tobytes() == (Q * np.conj(spec.lambda_h)).tobytes()

    @pytest.mark.parametrize("kind", ["dps", "pigdm", "ideal"])
    def test_non_hermitian_h_matches_complex_recurrence(self, kind):
        # No real operator has this h, and the LPF workloads never build one;
        # the real factorization still holds, because conj(h) is the only
        # complex factor whatever h is.
        rng = np.random.default_rng(27)
        for d, S in ((7, 1), (10, 12), (16, 60)):
            prior, spec, _ = _random_setup(rng, d=d)
            spec = replace(spec, lambda_h=rng.standard_normal(d) + 1j * rng.standard_normal(d))
            assert not np.allclose(spec.lambda_h, np.conj(np.roll(spec.lambda_h[::-1], 1)))
            table = StepTable(kind, prior, spec, ddim_subsequence(linear_ddpm_schedule(1000), S))
            theta = rng.uniform(0, 0.2, table.width)
            want = running_states(*table.step_arrays(theta))[0]
            for got, ref in zip(table.compose(theta), want):
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("kind", ["dps", "pigdm", "ideal"])
    def test_compose_equals_pullback_triple(self, kind):
        rng = np.random.default_rng(24)
        for S, (prior, spec) in (
            (1, _random_setup(rng)[:2]),
            (9, _random_setup(rng, d=12)[:2]),
            (200, _reference_model()),
        ):
            table = StepTable(kind, prior, spec, ddim_subsequence(linear_ddpm_schedule(1000), S))
            theta = rng.uniform(0, 0.2, table.width)
            zero = np.zeros(prior.dim)
            # The score hands the triple it is given back as the "loss".
            triple, _ = table.value_and_grad(theta, lambda *t: (t, (zero, zero, zero)))
            for composed, swept in zip(table.compose(theta), triple):
                assert composed.tobytes() == swept.tobytes()

    @pytest.mark.parametrize("kind", ["dps", "pigdm", "ideal"])
    @pytest.mark.parametrize("S", [1, 200])
    def test_reused_table_matches_fresh_tables_bit_for_bit(self, kind, S):
        # One table evaluates A, then B, then A again; every composition,
        # step array and gradient equals a fresh table's, so nothing a
        # composition leaves in the workspace reaches the next one.
        rng = np.random.default_rng(28)
        prior, spec = _reference_model()
        sched = ddim_subsequence(linear_ddpm_schedule(1000), S)
        table = StepTable(kind, prior, spec, sched)
        A, B = (rng.uniform(0, 0.2, table.width) for _ in range(2))

        def evaluate(t, theta, cots):
            triple, grad = t.value_and_grad(theta, lambda *triple: (triple, cots))
            out = [*t.compose(theta), *t.step_arrays(theta), *triple, grad]
            return [x.tobytes() for x in out]

        for theta in (A, B, A):
            cots = rng.standard_normal((3, prior.dim)) + 1j * rng.standard_normal((3, prior.dim))
            fresh = evaluate(StepTable(kind, prior, spec, sched), theta, cots)
            assert evaluate(table, theta, cots) == fresh

    @pytest.mark.parametrize("kind", ["dps", "pigdm", "ideal"])
    def test_handed_out_arrays_survive_later_compositions(self, kind):
        # step_arrays, triples and gradients are new arrays, never views of
        # the workspace that the next composition overwrites.
        rng = np.random.default_rng(29)
        prior, spec, _ = _random_setup(rng, d=10)
        table = StepTable(kind, prior, spec, ddim_subsequence(linear_ddpm_schedule(1000), 12))
        A, B = (rng.uniform(0, 0.2, table.width) for _ in range(2))
        cots = [rng.standard_normal(10) + 1j * rng.standard_normal(10) for _ in range(3)]
        triple, grad = table.value_and_grad(A, lambda *t: (t, cots))
        handed = [*table.step_arrays(A), *table.compose(A), *triple, grad]
        before = [x.tobytes() for x in handed]
        for theta in (B, A + 1.0):
            table.step_arrays(theta)
            table.compose(theta)
            table.value_and_grad(theta, lambda *t: (0.0, cots))
        assert [x.tobytes() for x in handed] == before

    def test_guidance_off_equivalence_across_samplers(self):
        rng = np.random.default_rng(18)
        prior, spec, obs = _random_setup(rng)
        sched = ddim_subsequence(linear_ddpm_schedule(200), 9)
        dps0 = transfer_triple(WeightSchedule.dps(np.zeros(9)), prior, spec, sched)
        pigdm0 = transfer_triple(WeightSchedule.pigdm(np.zeros(9), np.ones(9)), prior, spec, sched)
        for a, b in zip(dps0, pigdm0):
            np.testing.assert_allclose(a, b, atol=1e-14)
        assert np.max(np.abs(dps0[1])) == 0.0

    def test_batch_axis_rejected(self):
        # Each call takes one packed weight vector; a (1, P) row is rejected,
        # not broadcast into (1, d) triples.
        rng = np.random.default_rng(22)
        prior, spec, _ = _random_setup(rng)
        sched = ddim_subsequence(linear_ddpm_schedule(200), 7)
        with pytest.raises(ValueError, match="must match the schedule"):
            batch_triples("ideal", np.empty((1, 0)), prior, spec, sched)
        for kind, width in (("dps", 7), ("pigdm", 14)):
            table = StepTable(kind, prior, spec, sched)
            row = rng.uniform(0, 1, (1, width))
            calls = (
                table.step_arrays,
                table.compose,
                lambda theta: table.value_and_grad(theta, lambda *t: (0.0, t)),
                lambda theta: batch_triples(kind, theta, prior, spec, sched),
            )
            for call in calls:
                with pytest.raises(ValueError, match="must match the schedule"):
                    call(row)
            for D in table.compose(row[0]):
                assert D.shape == (prior.dim,)


class TestIdealIsExactPigdm:
    """The MAP step is PiGDM's step at g = b k and r^2 = k c, k = (1 - ab) / sqrt(ab).

    Tweedie's formula makes r^2 = k c the posterior variance Var[x0 | x_t] per
    bin; on a white prior c = sqrt(ab), so r^2 is the published 1 - ab and only
    the gain differs from the published g = 1.
    """

    @pytest.mark.parametrize("d", [8, 9, 50])
    @pytest.mark.parametrize("S", [3, 20, 200])
    def test_white_prior_closed_form(self, d, S):
        # A white prior (lambda = 1) with a random mean, under a random real blur.
        rng = np.random.default_rng(100 * d + S)
        prior = SpectralPrior(mu_f=np.fft.fft(rng.standard_normal(d)), lambda0=np.ones(d))
        spec = DegradationSpec(lambda_h=np.fft.fft(rng.standard_normal(d)), sigma_y=0.3)
        sched = ddim_subsequence(linear_ddpm_schedule(1000), S)
        exact = WeightSchedule.pigdm(*tweedie_pigdm_weights(sched.alpha_bar))
        got = transfer_triple(exact, prior, spec, sched)
        for D, want in zip(got, ideal_triple(prior, spec, sched)):
            np.testing.assert_allclose(D, want, rtol=1e-12)

    def test_ideal_value_and_grad_scores_its_triple(self):
        # The ideal table runs the same forward and reverse sweeps as a
        # guided one; it has no weights, so its gradient is empty.
        prior, spec = _reference_model()
        sched = ddim_subsequence(linear_ddpm_schedule(1000), 20)
        triple = ideal_triple(prior, spec, sched)

        def score(*t):
            return triples_loss(*t, prior, spec, None), triples_loss_cotangents(*t, prior, spec, None)

        loss, grad = StepTable("ideal", prior, spec, sched).value_and_grad(np.empty(0), score)
        assert loss == triples_loss(*triple, prior, spec, None)
        assert grad.shape == (0,)


class TestOutputDistribution:
    def test_direct_passthrough_triple(self):
        rng = np.random.default_rng(19)
        prior, spec, obs = _random_setup(rng)
        triple = (np.zeros(8, complex), np.ones(8, complex), np.zeros(8, complex))
        dist = output_distribution(triple, obs, prior)
        np.testing.assert_array_equal(dist.mean, obs.y_f)
        np.testing.assert_array_equal(dist.var, np.zeros(8))

    def test_zero_weight_dps_mean_ignores_measurement(self):
        rng = np.random.default_rng(20)
        prior, spec, obs = _random_setup(rng)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 6)
        _, D2, _ = transfer_triple(WeightSchedule.dps(np.zeros(6)), prior, spec, sched)
        assert np.max(np.abs(D2)) == 0.0

    def test_unobserved_bins_ignore_measurement_for_every_sampler(self):
        rng = np.random.default_rng(21)
        prior = make_synthetic_prior(10, 0.3, mu_const=0.5)
        spec = make_lpf(10, 0.3, sigma_y=0.2)
        sched = ddim_subsequence(linear_ddpm_schedule(150), 7)
        blocked = spec.lambda_h == 0
        triples = [
            transfer_triple(WeightSchedule.dps(rng.uniform(-1, 1, 7)), prior, spec, sched),
            transfer_triple(
                WeightSchedule.pigdm(rng.uniform(-1, 1, 7), rng.uniform(0, 1, 7)),
                prior,
                spec,
                sched,
            ),
            ideal_triple(prior, spec, sched),
        ]
        for _, D2, _ in triples:
            np.testing.assert_array_equal(D2[blocked], np.zeros(blocked.sum()))
