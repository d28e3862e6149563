from dataclasses import replace

import numpy as np
import pytest

from specdiff import (
    DegradationSpec,
    Guidance,
    LossContext,
    Observation,
    Schedule,
    SimConfig,
    SpectralPrior,
    WeightSchedule,
    ddim_subsequence,
    degrade,
    heuristic_weight_profile,
    heuristic_zeta,
    ideal_triple,
    linear_ddpm_schedule,
    make_lpf,
    make_synthetic_prior,
    monte_carlo,
    output_distribution,
    sample_prior,
    simulate_one,
    transfer_triple,
)

from oracles import random_prior_arrays


def _setup(rng, d=8, S=6, sigma=0.2, lam_floor=0.0):
    mu_f, lam = random_prior_arrays(d, rng, lam_floor=lam_floor)
    prior = SpectralPrior(dim=d, mu_f=mu_f, lambda0=lam)
    spec = DegradationSpec(dim=d, lambda_h=np.fft.fft(rng.standard_normal(d)), sigma_y=sigma)
    sched = ddim_subsequence(linear_ddpm_schedule(200), S)
    obs = degrade(sample_prior(prior, rng), spec, rng)
    return prior, spec, sched, obs


class TestSimulateOne:
    def test_prior_sampler_matches_zero_weight_transfer(self):
        rng = np.random.default_rng(0)
        prior, spec, sched, obs = _setup(rng)
        x_start = rng.standard_normal(8)
        cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=Guidance.none())
        x0, realized = simulate_one(cfg, obs, x_start)
        triple = transfer_triple(WeightSchedule.dps(np.zeros(sched.S)), prior, spec, sched)
        want = triple.D1 * np.fft.fft(x_start) + triple.D3 * prior.mu_f
        np.testing.assert_allclose(np.fft.fft(x0), want, atol=1e-10 * max(1, np.max(np.abs(want))))
        assert np.all(realized == 0)

    def test_fixed_weight_trajectory_matches_composed_triple(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            prior, spec, sched, obs = _setup(rng, d=int(rng.integers(2, 12)), S=int(rng.integers(1, 12)))
            zeta = rng.uniform(-0.5, 0.5, sched.S)
            x_start = rng.standard_normal(prior.dim)
            cfg = SimConfig(
                prior=prior,
                spec=spec,
                schedule=sched,
                guidance=Guidance.fixed(WeightSchedule.dps(zeta)),
            )
            x0, realized = simulate_one(cfg, obs, x_start)
            triple = transfer_triple(WeightSchedule.dps(zeta), prior, spec, sched)
            want = triple.D1 * np.fft.fft(x_start) + triple.D2 * obs.y_f + triple.D3 * prior.mu_f
            np.testing.assert_allclose(
                np.fft.fft(x0), want, atol=1e-10 * max(1, np.max(np.abs(want)))
            )
            np.testing.assert_array_equal(realized, zeta)

    def test_pigdm_trajectory_matches_composed_triple(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            prior, spec, sched, obs = _setup(rng, d=int(rng.integers(2, 12)), S=int(rng.integers(1, 12)))
            g = rng.uniform(-0.5, 0.5, sched.S)
            r = rng.uniform(0.0, 1.0, sched.S)
            x_start = rng.standard_normal(prior.dim)
            guide = Guidance.fixed(WeightSchedule.pigdm(g, r))
            cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=guide)
            x0, realized = simulate_one(cfg, obs, x_start)
            triple = transfer_triple(WeightSchedule.pigdm(g, r), prior, spec, sched)
            want = triple.D1 * np.fft.fft(x_start) + triple.D2 * obs.y_f + triple.D3 * prior.mu_f
            np.testing.assert_allclose(
                np.fft.fft(x0), want, atol=1e-10 * max(1, np.max(np.abs(want)))
            )
            np.testing.assert_array_equal(realized, g)

    def test_optimal_guidance_with_huge_noise_follows_prior_trajectory(self):
        rng = np.random.default_rng(3)
        prior, spec, sched, obs = _setup(rng)
        big = replace(spec, sigma_y=1e7)
        x_start = rng.standard_normal(8)
        x_opt, _ = simulate_one(
            SimConfig(prior=prior, spec=big, schedule=sched, guidance=Guidance.optimal()),
            obs,
            x_start,
        )
        x_none, _ = simulate_one(
            SimConfig(prior=prior, spec=big, schedule=sched, guidance=Guidance.none()),
            obs,
            x_start,
        )
        np.testing.assert_allclose(x_opt, x_none, atol=1e-6 * max(1, np.max(np.abs(x_none))))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_reports_step(self):
        rng = np.random.default_rng(4)
        prior, spec, sched, obs = _setup(rng, S=4)
        guide = Guidance.fixed(WeightSchedule.dps([1e300] * 4))
        cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=guide)
        with pytest.raises(ValueError, match="diverged at step"):
            simulate_one(cfg, obs, rng.standard_normal(8))


class TestRealOperators:
    def test_lpf_with_a_broken_conjugate_pair_rejected(self):
        # DC, the pairs (1, 49) and (2, 48), and bin 3 without its mirror 47:
        # the mask make_lpf(50, 0.12) used to build.  Keeping the real part of
        # each matvec moved simulate_one off the composed triple by 0.41 on
        # outputs of size 7.4 (S=20, constant zeta=0.1).
        prior = make_synthetic_prior(50, 0.05)
        mask = np.zeros(50, complex)
        mask[[0, 1, 2, 3, 48, 49]] = 1.0
        spec = DegradationSpec(dim=50, lambda_h=mask, sigma_y=0.1)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 5)
        with pytest.raises(ValueError, match="lambda_h is not Hermitian"):
            SimConfig(prior=prior, spec=spec, schedule=sched, guidance=Guidance.none())

    def test_complex_prior_mean_and_measurement_rejected(self):
        rng = np.random.default_rng(12)
        prior, spec, sched, obs = _setup(rng)
        mu_f = prior.mu_f.copy()
        mu_f[1] += 1e-6j
        bad = SpectralPrior(dim=prior.dim, mu_f=mu_f, lambda0=prior.lambda0)
        with pytest.raises(ValueError, match="mu_f is not Hermitian"):
            SimConfig(prior=bad, spec=spec, schedule=sched, guidance=Guidance.none())
        with pytest.raises(ValueError, match="y_f is not Hermitian"):
            Observation(y_f=obs.y_f + 1e-6j).y_time()


class TestMonteCarlo:
    def test_ideal_sampler_moments_match_closed_form(self):
        rng = np.random.default_rng(5)
        prior, spec, sched, obs = _setup(rng, d=8, S=30, sigma=0.1, lam_floor=0.2)
        n = 100_000
        cfg = SimConfig(
            prior=prior, spec=spec, schedule=sched, guidance=Guidance.optimal(), n_runs=n, seed=99
        )
        stats = monte_carlo(cfg, obs)
        triple = ideal_triple(prior, spec, sched)
        dist = output_distribution(triple, obs, prior)
        stderr = np.sqrt(prior.dim * dist.var / n)
        assert np.all(np.abs(stats.emp_mean - dist.mean) <= 3 * stderr + 1e-12)
        np.testing.assert_allclose(stats.emp_var, dist.var, rtol=0.05)

    def test_fully_denoised_single_step_has_zero_variance(self):
        # One bin, one step: pick zeta so the composed D1 vanishes and the
        # output no longer depends on the starting noise.
        lam = np.array([2.0])
        prior = SpectralPrior(dim=1, mu_f=np.zeros(1, complex), lambda0=lam)
        spec = DegradationSpec(dim=1, lambda_h=np.ones(1, complex), sigma_y=0.3)
        sched = Schedule(alpha_bar=np.array([0.5]), T_full=1)
        ab = 0.5
        c = np.sqrt(ab) * lam[0] / (ab * lam[0] + 1 - ab)
        zeta_kill = 1.0 / (2.0 * c)
        triple = transfer_triple(WeightSchedule.dps([zeta_kill]), prior, spec, sched)
        assert abs(triple.D1[0]) < 1e-15
        obs = Observation(y_f=np.array([0.7 + 0j]))
        cfg = SimConfig(
            prior=prior,
            spec=spec,
            schedule=sched,
            guidance=Guidance.fixed(WeightSchedule.dps([zeta_kill])),
            n_runs=64,
            seed=3,
        )
        stats = monte_carlo(cfg, obs)
        np.testing.assert_allclose(stats.emp_var, np.zeros(1), atol=1e-25)

    def test_same_seed_reproduces_stats(self):
        rng = np.random.default_rng(6)
        prior, spec, sched, obs = _setup(rng)
        cfg = SimConfig(
            prior=prior, spec=spec, schedule=sched, guidance=Guidance.none(), n_runs=50, seed=11
        )
        a = monte_carlo(cfg, obs)
        b = monte_carlo(cfg, obs)
        np.testing.assert_array_equal(a.emp_mean, b.emp_mean)
        np.testing.assert_array_equal(a.emp_var, b.emp_var)

    def test_prior_only_long_run_recovers_prior_spectrum(self):
        prior = make_synthetic_prior(8, 0.2, mu_const=0.4)
        T = 1000
        sched = ddim_subsequence(linear_ddpm_schedule(T), T)
        spec = make_lpf(8, 1.0, sigma_y=0.1)
        obs = Observation(y_f=np.zeros(8, complex))
        cfg = SimConfig(
            prior=prior, spec=spec, schedule=sched, guidance=Guidance.none(), n_runs=100_000, seed=7
        )
        stats = monte_carlo(cfg, obs)
        live = prior.lambda0 > 1e-12
        np.testing.assert_allclose(stats.emp_var[live], prior.lambda0[live], rtol=0.05)
        assert np.all(stats.emp_var[~live] < 1e-10)

    def test_single_run_rejected(self):
        rng = np.random.default_rng(7)
        prior, spec, sched, obs = _setup(rng)
        cfg = SimConfig(prior=prior, spec=spec, schedule=sched, guidance=Guidance.none(), n_runs=1)
        with pytest.raises(ValueError):
            monte_carlo(cfg, obs)


class TestHeuristicProfile:
    def test_noiseless_profile_increases_toward_the_end(self):
        # With a perfect denoiser and shrinking residual, the realized weights
        # grow as sampling proceeds (later steps sit at lower s).
        prior = make_synthetic_prior(16, 0.2)
        spec = make_lpf(16, 0.45, sigma_y=0.0)
        sched = ddim_subsequence(linear_ddpm_schedule(500), 40)
        rng = np.random.default_rng(8)
        obs = degrade(sample_prior(prior, rng), spec, rng)
        cfg = SimConfig(
            prior=prior, spec=spec, schedule=sched, guidance=Guidance.none(), n_runs=64, seed=5
        )
        profile = heuristic_weight_profile(0.3, cfg, obs).mean(axis=1)
        process_order = profile[::-1]  # s = S first
        late = process_order[-8:]
        early = process_order[:8]
        assert late.mean() > early.mean()

    def test_zero_constant_gives_zero_weights(self):
        rng = np.random.default_rng(9)
        prior, spec, sched, obs = _setup(rng)
        cfg = SimConfig(
            prior=prior, spec=spec, schedule=sched, guidance=Guidance.none(), n_runs=8, seed=1
        )
        with pytest.raises(ValueError):
            heuristic_weight_profile(0.0, cfg, obs)
        # Fixed zero weights realize as zero.
        cfg0 = SimConfig(
            prior=prior,
            spec=spec,
            schedule=sched,
            guidance=Guidance.fixed(WeightSchedule.dps(np.zeros(sched.S))),
            n_runs=8,
            seed=1,
        )
        stats = monte_carlo(cfg0, obs)
        assert stats.per_step_zeta is None

    def test_replay_is_exactly_linear_in_the_constant(self):
        # The heuristic replayed on frozen residual norms scales with zeta'.
        norms = np.random.default_rng(10).uniform(0.1, 3.0, (10, 16))
        once = heuristic_zeta(0.3, norms, cap=5.0)
        np.testing.assert_allclose(once, 0.3 / norms, rtol=1e-15)
        np.testing.assert_allclose(heuristic_zeta(0.6, norms, cap=5.0), 2.0 * once, rtol=1e-15)

    def test_zero_residual_caps_at_bound(self):
        norms = np.array([[0.0, 2.0]])
        out = heuristic_zeta(1.0, norms, cap=5.0)
        np.testing.assert_allclose(out, [[5.0, 0.5]])

    def test_profile_shapes_and_determinism(self):
        rng = np.random.default_rng(11)
        prior, spec, sched, obs = _setup(rng, S=7)
        cfg = SimConfig(
            prior=prior, spec=spec, schedule=sched, guidance=Guidance.none(), n_runs=12, seed=4
        )
        p1 = heuristic_weight_profile(0.5, cfg, obs)
        p2 = heuristic_weight_profile(0.5, cfg, obs)
        assert p1.shape == (7, 12)
        np.testing.assert_array_equal(p1, p2)
