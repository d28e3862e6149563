import numpy as np
import pytest

from specdiff import (
    DegradationSpec,
    LossContext,
    Observation,
    OptimizeOptions,
    Schedule,
    SpectralPrior,
    WeightSchedule,
    ddim_subsequence,
    default_init,
    degrade,
    interpolate_weights,
    iterative_ladder,
    linear_ddpm_schedule,
    make_lpf,
    make_synthetic_prior,
    optimize_weights,
    realization_loss,
    reduce_dimensions,
    sample_prior,
)
from specdiff.optimizer import _loss_gradient, dropped_bin_constant

from oracles import central_gradient, five_point_gradient, random_prior_arrays


def _small_ctx(rng, d=8, S=6, kind="dps", K=1):
    mu_f, lam = random_prior_arrays(d, rng)
    prior = SpectralPrior(dim=d, mu_f=mu_f, lambda0=lam)
    spec = DegradationSpec(
        dim=d, lambda_h=np.fft.fft(rng.standard_normal(d)), sigma_y=float(rng.uniform(0.1, 0.6))
    )
    sched = ddim_subsequence(linear_ddpm_schedule(200), S)
    obs = tuple(degrade(sample_prior(prior, rng), spec, rng) for _ in range(K))
    return LossContext(prior=prior, spec=spec, schedule=sched, sampler_kind=kind, observations=obs)


def _paper_ctx(rng, S=20, kind="dps"):
    prior = make_synthetic_prior(50, 0.05)
    spec = make_lpf(50, 0.5, sigma_y=0.1)
    sched = ddim_subsequence(linear_ddpm_schedule(1000), S)
    obs = degrade(sample_prior(prior, rng), spec, rng)
    return LossContext(prior=prior, spec=spec, schedule=sched, sampler_kind=kind, observations=(obs,))


class TestFiniteDiffGradient:
    def test_matches_five_point_stencil_on_loss(self):
        rng = np.random.default_rng(0)
        ctx = _small_ctx(rng)

        def f(theta):
            return realization_loss(WeightSchedule.dps(theta), ctx)

        theta = rng.uniform(-0.5, 0.5, ctx.schedule.S)
        g2 = _loss_gradient("dps", ctx, theta)
        g4 = five_point_gradient(f, theta, 1e-4)
        np.testing.assert_allclose(g2, g4, rtol=1e-4, atol=1e-9)

    def test_internal_gradient_matches_public_op(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            kind = "dps" if rng.random() < 0.5 else "pigdm"
            ctx = _small_ctx(rng, kind=kind)
            S = ctx.schedule.S
            theta = (
                rng.uniform(-0.5, 0.5, S)
                if kind == "dps"
                else np.r_[rng.uniform(-0.5, 0.5, S), rng.uniform(0.1, 1.0, S)]
            )

            def f(t):
                if kind == "dps":
                    return realization_loss(WeightSchedule.dps(t), ctx)
                return realization_loss(WeightSchedule.pigdm(t[:S], np.abs(t[S:])), ctx)

            internal = _loss_gradient(kind, ctx, theta)
            public = central_gradient(f, theta, 1e-6)
            np.testing.assert_allclose(internal, public, rtol=1e-4, atol=1e-8)


class TestOptimizeWeights:
    def test_descends_and_respects_bounds(self):
        rng = np.random.default_rng(2)
        for kind in ("dps", "pigdm"):
            ctx = _small_ctx(rng, kind=kind)
            init = default_init(ctx)
            sol = optimize_weights(ctx, init, OptimizeOptions(max_iters=300))
            f0 = sol.trace[0][1]
            assert sol.final_loss <= f0 + 1e-12
            losses = [v for _, v in sol.trace]
            assert all(a >= b - 1e-10 for a, b in zip(losses, losses[1:]))
            packed = sol.weights.zeta if kind == "dps" else np.r_[sol.weights.g, sol.weights.r]
            assert np.all(packed >= -5.0) and np.all(packed <= 5.0)
            if kind == "pigdm":
                assert np.all(sol.weights.r >= 0)

    def test_restarting_at_optimum_is_a_fixed_point(self):
        rng = np.random.default_rng(3)
        ctx = _small_ctx(rng)
        first = optimize_weights(ctx, default_init(ctx))
        second = optimize_weights(ctx, first.weights)
        assert second.iterations <= 2
        assert second.final_loss <= first.final_loss + 1e-12

    def test_one_bin_single_step_matches_analytic_minimizer(self):
        # d = 1 makes every transfer scalar; with S = 1 the loss is an explicit
        # quadratic in zeta wherever G stays positive.
        lam = np.array([2.0])
        prior = SpectralPrior(dim=1, mu_f=np.zeros(1, complex), lambda0=lam)
        spec = DegradationSpec(dim=1, lambda_h=np.ones(1, complex), sigma_y=0.5)
        sched = Schedule(alpha_bar=np.array([0.5]), T_full=1)
        y = 0.8
        obs = Observation(y_f=np.array([y + 0j]))
        ctx = LossContext(prior, spec, sched, "dps", (obs,))

        ab = 0.5
        c = np.sqrt(ab) * lam[0] / (ab * lam[0] + 1 - ab)
        lam_post = lam[0] - lam[0] ** 2 / (lam[0] + spec.sigma_y**2)
        A = lam[0] / (lam[0] + spec.sigma_y**2)
        u, v, w, p, q = np.sqrt(lam_post), c, 2 * c**2, 2 * c * y, A * y
        zeta_star = (w * (v - u) + p * q) / (w**2 + p**2)
        assert 0 < zeta_star < 1 / (2 * c)  # inside the quadratic region

        loss_star = (u - v + w * zeta_star) ** 2 + (p * zeta_star - q) ** 2
        sol = optimize_weights(ctx, WeightSchedule.dps(np.array([0.1])))
        assert abs(sol.weights.zeta[0] - zeta_star) < 1e-6
        assert np.isclose(sol.final_loss, loss_star, rtol=1e-10)

    def test_invalid_starting_point_rejected(self):
        rng = np.random.default_rng(4)
        ctx = _small_ctx(rng)
        with pytest.raises(ValueError, match="invalid starting point"):
            optimize_weights(ctx, WeightSchedule.dps(np.full(ctx.schedule.S, np.nan)))

    def test_beats_heuristic_baselines_on_reference_config(self):
        rng = np.random.default_rng(5)
        ctx = _paper_ctx(rng, S=20)
        sol = optimize_weights(ctx, default_init(ctx))
        from specdiff import pigdm_heuristic_weights

        pigdm_ctx = LossContext(
            ctx.prior, ctx.spec, ctx.schedule, "pigdm", ctx.observations
        )
        pig = pigdm_heuristic_weights(ctx.schedule)
        assert sol.final_loss <= realization_loss(pig, pigdm_ctx) + 1e-9
        pig_sol = optimize_weights(pigdm_ctx, default_init(pigdm_ctx))
        assert pig_sol.final_loss <= realization_loss(pig, pigdm_ctx) + 1e-9


class TestLadder:
    def test_single_rung_equals_cold_start(self):
        rng = np.random.default_rng(6)
        ctx = _small_ctx(rng)
        opts = OptimizeOptions(ladder=(ctx.schedule.S,))
        cold = optimize_weights(ctx, default_init(ctx))
        laddered = iterative_ladder(ctx, opts)
        np.testing.assert_allclose(laddered.weights.zeta, cold.weights.zeta, atol=1e-12)
        assert np.isclose(laddered.final_loss, cold.final_loss, rtol=1e-12)

    def test_constant_vector_interpolates_to_constant(self):
        w = WeightSchedule.dps(np.full(7, 0.42))
        out = interpolate_weights(w, 19)
        np.testing.assert_allclose(out.zeta, np.full(19, 0.42), atol=1e-15)
        wp = WeightSchedule.pigdm(np.full(3, 1.0), np.full(3, 0.2))
        out = interpolate_weights(wp, 11)
        np.testing.assert_allclose(out.g, np.ones(11))
        np.testing.assert_allclose(out.r, np.full(11, 0.2))

    def test_warm_start_quality_matches_cold_start(self):
        rng = np.random.default_rng(7)
        ctx = _paper_ctx(rng, S=70)
        cold = optimize_weights(ctx, default_init(ctx))
        warm = iterative_ladder(ctx, OptimizeOptions(ladder=(5, 30, 70)))
        assert warm.final_loss <= 1.02 * cold.final_loss

    def test_empty_ladder_rejected(self):
        rng = np.random.default_rng(8)
        ctx = _small_ctx(rng)
        with pytest.raises(ValueError, match="empty ladder"):
            iterative_ladder(ctx, OptimizeOptions(ladder=()))

    def test_non_increasing_ladder_rejected(self):
        rng = np.random.default_rng(9)
        ctx = _small_ctx(rng)
        with pytest.raises(ValueError):
            iterative_ladder(ctx, OptimizeOptions(ladder=(10, 10, ctx.schedule.S)))


class TestReduceDimensions:
    def test_identity_reduction_keeps_loss(self):
        rng = np.random.default_rng(10)
        ctx = _small_ctx(rng)
        rprior, rspec, keep = reduce_dimensions(ctx.prior, ctx.spec, ctx.prior.dim)
        np.testing.assert_array_equal(keep, np.arange(ctx.prior.dim))
        np.testing.assert_array_equal(rprior.lambda0, ctx.prior.lambda0)
        sol_full = optimize_weights(ctx, default_init(ctx))
        sol_red = optimize_weights(
            ctx, default_init(ctx), OptimizeOptions(keep_dims=ctx.prior.dim)
        )
        assert np.isclose(sol_full.final_loss, sol_red.final_loss, rtol=1e-12)

    def test_ties_break_to_lower_index(self):
        prior = SpectralPrior(dim=4, mu_f=np.zeros(4, complex), lambda0=np.array([1.0, 2.0, 2.0, 1.0]))
        spec = DegradationSpec(dim=4, lambda_h=np.ones(4, complex), sigma_y=0.1)
        _, _, keep = reduce_dimensions(prior, spec, 3)
        np.testing.assert_array_equal(keep, [0, 1, 2])

    def test_dominant_eigenvalue_reduction_changes_little(self):
        lam = np.array([5.0, 1e-13, 1e-13, 1e-13])
        prior = SpectralPrior(dim=4, mu_f=np.zeros(4, complex), lambda0=lam)
        spec = DegradationSpec(dim=4, lambda_h=np.ones(4, complex), sigma_y=0.1)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 5)
        rng = np.random.default_rng(11)
        obs = degrade(sample_prior(prior, rng), spec, rng)
        ctx = LossContext(prior, spec, sched, "dps", (obs,))
        full = optimize_weights(ctx, default_init(ctx))
        reduced = optimize_weights(ctx, default_init(ctx), OptimizeOptions(keep_dims=1))
        assert np.max(np.abs(full.weights.zeta - reduced.weights.zeta)) <= 1e-4

    def test_out_of_range_rejected(self):
        rng = np.random.default_rng(12)
        ctx = _small_ctx(rng)
        for k in (0, ctx.prior.dim + 1):
            with pytest.raises(ValueError):
                reduce_dimensions(ctx.prior, ctx.spec, k)

    def test_report_exact_adds_dropped_constant(self):
        rng = np.random.default_rng(13)
        ctx = _small_ctx(rng)
        _, _, keep = reduce_dimensions(ctx.prior, ctx.spec, 5)
        const = dropped_bin_constant(ctx, keep)
        plain = optimize_weights(ctx, default_init(ctx), OptimizeOptions(keep_dims=5))
        exact = optimize_weights(
            ctx, default_init(ctx), OptimizeOptions(keep_dims=5, report_exact=True)
        )
        assert np.isclose(exact.final_loss - plain.final_loss, const, rtol=1e-9, atol=1e-12)
        assert const >= 0
