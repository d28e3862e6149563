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
    TransferTriple,
    WeightSchedule,
    batch_triples,
    ddim_subsequence,
    degrade,
    ideal_triple,
    linear_ddpm_schedule,
    make_lpf,
    make_synthetic_prior,
    output_distribution,
    posterior_optimal_denoise,
    prior_optimal_denoise,
    sample_prior,
    simulate_one,
    step_coeffs,
    transfer_triple,
    true_posterior,
    w2_diag,
)
from specdiff.objective import triple_realization_loss

from oracles import (
    central_gradient,
    dense_map_denoiser,
    dense_operator_from_multiplier,
    dense_prior_denoiser,
    log_posterior,
    random_prior_arrays,
)


def _random_setup(rng, d=8, sigma=None, lam_floor=0.0):
    mu_f, lam = random_prior_arrays(d, rng, lam_floor=lam_floor)
    prior = SpectralPrior(dim=d, mu_f=mu_f, lambda0=lam)
    lam_h = np.fft.fft(rng.standard_normal(d))
    sigma = float(rng.uniform(0.1, 1.0)) if sigma is None else sigma
    spec = DegradationSpec(dim=d, lambda_h=lam_h, sigma_y=sigma)
    obs = degrade(sample_prior(prior, rng), spec, rng)
    return prior, spec, obs


def all_steps(kind, theta, prior, spec, sched):
    """Every step's (G, Q, M) for one packed weight vector, each (d,), s = S..1."""
    return list(zip(*StepTable(kind, prior, spec, sched).step_arrays(theta)))


def one_step(kind, theta, prior, spec, sched, s):
    """(G, Q, M) of step s alone."""
    return all_steps(kind, theta, prior, spec, sched)[sched.S - s]


def at_step(S, s, value, fill=0.0):
    """Per-step weight vector holding value at step s and fill elsewhere."""
    vec = np.full(S, fill)
    vec[s - 1] = value
    return vec


def unroll(steps, x_f, y_f, mu_f):
    """Concrete step-by-step recursion, the reference for the composition."""
    x = x_f.copy()
    for G, Q, M in steps:
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


class TestStepTransfers:
    def test_dps_zero_weight_is_prior_step(self):
        rng = np.random.default_rng(7)
        prior, spec, _ = _random_setup(rng)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 4)
        coeffs = step_coeffs(sched, 3, prior)
        G, Q, M = one_step("dps", np.zeros(4), prior, spec, sched, 3)
        np.testing.assert_allclose(G, coeffs.a_s + coeffs.b_s * coeffs.c_s)
        np.testing.assert_array_equal(Q, np.zeros(8))
        np.testing.assert_allclose(M, coeffs.b_s * coeffs.d_s)

    def test_guidance_dead_on_unobserved_bins(self):
        prior = make_synthetic_prior(8, 0.2)
        spec = make_lpf(8, 0.375, sigma_y=0.1)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 4)
        coeffs = step_coeffs(sched, 2, prior)
        G, Q, M = one_step("dps", at_step(4, 2, 0.8), prior, spec, sched, 2)
        blocked = spec.lambda_h == 0
        np.testing.assert_allclose(
            G[blocked], (coeffs.a_s + coeffs.b_s * coeffs.c_s)[blocked]
        )
        np.testing.assert_array_equal(Q[blocked], 0)
        np.testing.assert_allclose(M[blocked], (coeffs.b_s * coeffs.d_s)[blocked])

    def test_pigdm_zero_gain_is_prior_step(self):
        rng = np.random.default_rng(8)
        prior, spec, _ = _random_setup(rng)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 4)
        coeffs = step_coeffs(sched, 2, prior)
        theta = np.concatenate([np.zeros(4), np.full(4, 0.5)])
        G, Q, M = one_step("pigdm", theta, prior, spec, sched, 2)
        np.testing.assert_array_equal(Q, np.zeros(8))
        np.testing.assert_allclose(G, coeffs.a_s + coeffs.b_s * coeffs.c_s)

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
            ab = sched.at(s)
            coeffs = step_coeffs(sched, s, prior)
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
                coeffs.a_s * x_s
                + coeffs.b_s * inv @ (s2 * np.sqrt(ab) * Sigma0 @ x_s)
                + coeffs.b_s * inv @ ((1 - ab) * Sigma0 @ H.T @ obs.y_time())
                + coeffs.b_s * inv @ (s2 * (1 - ab) * prior.mu_time())
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
        want = posterior_optimal_denoise(prior, spec, obs.y_f, x_f, sched.at(1))
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


class TestTimeDomainOracle:
    """Single guided updates in the time domain must match the spectral transfers."""

    def test_guided_steps_match_spectral_transfers(self):
        # Exercise each sampler's single-step update on random interior steps
        # by advancing only the noisiest step of a two-step schedule.
        from specdiff.simulator import _run_batch

        rng = np.random.default_rng(14)
        kinds = ["dps", "pigdm", "optimal"]
        for kind in kinds:
            for _ in range(100):
                d = int(rng.integers(2, 12))
                prior, spec, obs = _random_setup(rng, d=d)
                ab_prev = float(rng.uniform(0.05, 0.999))
                ab_s = float(rng.uniform(0.01, ab_prev - 1e-3))
                two = Schedule(alpha_bar=np.array([ab_prev, ab_s]), T_full=2)
                x_s = rng.standard_normal(d)
                if kind == "dps":
                    zeta = float(rng.uniform(-2, 2))
                    G, Q, M = one_step("dps", [0.0, zeta], prior, spec, two, 2)
                    guide = Guidance.fixed(WeightSchedule.dps([0.0, zeta]))
                elif kind == "pigdm":
                    g = float(rng.uniform(-2, 2))
                    r = float(rng.uniform(0, 2))
                    G, Q, M = one_step("pigdm", [0.0, g, 1.0, r], prior, spec, two, 2)
                    guide = Guidance.fixed(WeightSchedule.pigdm([0.0, g], [1.0, r]))
                else:
                    G, Q, M = one_step("ideal", np.empty(0), prior, spec, two, 2)
                    guide = Guidance.optimal()
                cfg = SimConfig(prior=prior, spec=spec, schedule=two, guidance=guide)
                X, _ = _run_batch(cfg, obs, x_s[None, :], stop_at_s=1)
                want = G * np.fft.fft(x_s) + Q * obs.y_f + M * prior.mu_f
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
        triple = transfer_triple(WeightSchedule.dps(theta), prior, spec, one)
        np.testing.assert_array_equal(triple.D1, G)
        np.testing.assert_array_equal(triple.D2, Q)
        np.testing.assert_array_equal(triple.D3, M)

    def test_two_step_hand_example_pins_ordering(self):
        # Steps are applied s=2 then s=1, so D1 = G(1) G(2) and
        # D2 = Q(1) + G(1) Q(2), not Q(2) + G(2) Q(1).
        rng = np.random.default_rng(15)
        prior, spec, _ = _random_setup(rng)
        two = ddim_subsequence(linear_ddpm_schedule(100), 2)
        theta = np.array([0.7, 0.3])
        (G2, Q2, M2), (G1, Q1, M1) = all_steps("dps", theta, prior, spec, two)
        triple = transfer_triple(WeightSchedule.dps(theta), prior, spec, two)
        np.testing.assert_array_equal(triple.D1, G1 * G2)
        np.testing.assert_array_equal(triple.D2, G1 * Q2 + Q1)
        np.testing.assert_array_equal(triple.D3, G1 * M2 + M1)
        assert not np.allclose(triple.D2, G2 * Q1 + Q2)

    def test_pure_product_when_no_sources(self):
        rng = np.random.default_rng(16)
        prior, spec, _ = _random_setup(rng, d=5)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 4)
        steps = all_steps("dps", np.zeros(4), prior, spec, sched)
        triple = transfer_triple(WeightSchedule.dps(np.zeros(4)), prior, spec, sched)
        Gs = [G for G, _, _ in steps]
        np.testing.assert_allclose(triple.D1, np.prod(Gs, axis=0))
        np.testing.assert_array_equal(triple.D2, np.zeros(5))
        # With no measurement source, D3 is the product-sum over the M terms.
        D3 = sum(np.prod(Gs[j + 1 :], axis=0) * M for j, (_, _, M) in enumerate(steps))
        np.testing.assert_allclose(triple.D3, D3)

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
                triple = transfer_triple(weights, prior, spec, sched)
                direct = unroll(steps, x_f, obs.y_f, prior.mu_f)
                closed = triple.D1 * x_f + triple.D2 * obs.y_f + triple.D3 * prior.mu_f
                np.testing.assert_allclose(
                    closed, direct, atol=1e-12 * max(1.0, np.max(np.abs(direct)))
                )
            steps = all_steps("ideal", np.empty(0), prior, spec, sched)
            triple = ideal_triple(prior, spec, sched)
            direct = unroll(steps, x_f, obs.y_f, prior.mu_f)
            closed = triple.D1 * x_f + triple.D2 * obs.y_f + triple.D3 * prior.mu_f
            np.testing.assert_allclose(
                closed, direct, atol=1e-12 * max(1.0, np.max(np.abs(direct)))
            )

    def test_guidance_off_equivalence_across_samplers(self):
        rng = np.random.default_rng(18)
        prior, spec, obs = _random_setup(rng)
        sched = ddim_subsequence(linear_ddpm_schedule(200), 9)
        dps0 = transfer_triple(WeightSchedule.dps(np.zeros(9)), prior, spec, sched)
        pigdm0 = transfer_triple(WeightSchedule.pigdm(np.zeros(9), np.ones(9)), prior, spec, sched)
        for a, b in ((dps0.D1, pigdm0.D1), (dps0.D2, pigdm0.D2), (dps0.D3, pigdm0.D3)):
            np.testing.assert_allclose(a, b, atol=1e-14)
        assert np.max(np.abs(dps0.D2)) == 0.0

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
                table.compose_with_pullback,
                lambda theta: batch_triples(kind, theta, prior, spec, sched),
            )
            for call in calls:
                with pytest.raises(ValueError, match="must match the schedule"):
                    call(row)
            for D in table.compose(row[0]):
                assert D.shape == (prior.dim,)


class TestOutputDistribution:
    def test_direct_passthrough_triple(self):
        rng = np.random.default_rng(19)
        prior, spec, obs = _random_setup(rng)
        triple_like = TransferTriple(
            D1=np.zeros(8, complex), D2=np.ones(8, complex), D3=np.zeros(8, complex)
        )
        dist = output_distribution(triple_like, obs, prior)
        np.testing.assert_array_equal(dist.mean, obs.y_f)
        np.testing.assert_array_equal(dist.var, np.zeros(8))

    def test_zero_weight_dps_mean_ignores_measurement(self):
        rng = np.random.default_rng(20)
        prior, spec, obs = _random_setup(rng)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 6)
        triple = transfer_triple(WeightSchedule.dps(np.zeros(6)), prior, spec, sched)
        assert np.max(np.abs(triple.D2)) == 0.0

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
        for triple in triples:
            np.testing.assert_array_equal(triple.D2[blocked], np.zeros(blocked.sum()))
