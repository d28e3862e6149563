from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdiff import (
    DegradationSpec,
    LossContext,
    Observation,
    OptimizeOptions,
    Schedule,
    SpectralPrior,
    StepTable,
    WeightSchedule,
    batch_loss,
    ddim_subsequence,
    default_init,
    degrade,
    interpolate_weights,
    iterative_ladder,
    linear_ddpm_schedule,
    loss_and_gradient,
    make_lpf,
    make_synthetic_prior,
    optimize_weights,
    pigdm_from_dps,
    reduce_dimensions,
    sample_prior,
    weights_loss,
)
from specdiff import optimizer, transfer

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


def _theta(rng, kind, S):
    """A packed weight vector: zeta for DPS, [g, r] for PiGDM."""
    if kind == "dps":
        return rng.uniform(-0.5, 0.5, S)
    return np.r_[rng.uniform(-0.5, 0.5, S), rng.uniform(0.1, 1.0, S)]


def _public_loss(kind, ctx):
    """The loss as a function of theta through the public one-schedule path."""
    S = ctx.schedule.S

    def f(t):
        if kind == "dps":
            return weights_loss(WeightSchedule.dps(t), ctx)
        # |r| keeps the function defined (and even in r) on both sides of r = 0.
        return weights_loss(WeightSchedule.pigdm(t[:S], np.abs(t[S:])), ctx)

    return f


def _adjoint(ctx, theta):
    table = StepTable(ctx.sampler_kind, ctx.prior, ctx.spec, ctx.schedule)
    return loss_and_gradient(table, theta, ctx)


class TestFiniteDiffGradient:
    """The adjoint gradient against the finite-difference oracles."""

    def test_matches_five_point_stencil_on_loss(self):
        rng = np.random.default_rng(0)
        ctx = _small_ctx(rng)
        theta = rng.uniform(-0.5, 0.5, ctx.schedule.S)
        _, g = _adjoint(ctx, theta)
        g4 = five_point_gradient(_public_loss("dps", ctx), theta, 1e-4)
        np.testing.assert_allclose(g, g4, rtol=1e-4, atol=1e-9)

    def test_internal_gradient_matches_public_op(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            kind = "dps" if rng.random() < 0.5 else "pigdm"
            ctx = _small_ctx(rng, kind=kind)
            theta = _theta(rng, kind, ctx.schedule.S)
            _, internal = _adjoint(ctx, theta)
            public = central_gradient(_public_loss(kind, ctx), theta, 1e-6)
            np.testing.assert_allclose(internal, public, rtol=1e-4, atol=1e-8)

    @pytest.mark.parametrize("kind", ["dps", "pigdm"])
    @pytest.mark.parametrize("mode", ["K=1", "K=3", "averaged"])
    @pytest.mark.parametrize("bins", ["full", "truncated"])
    def test_every_sampler_and_loss_mode(self, kind, mode, bins):
        rng = np.random.default_rng(15)
        ctx = _small_ctx(rng, d=12, S=7, kind=kind, K=1 if mode == "K=1" else 3)
        if mode == "averaged":
            ctx = replace(ctx, observations=None)
        if bins == "truncated":
            _, _, keep = reduce_dimensions(ctx.prior, ctx.spec, 7)
            ctx = optimizer._reduced_context(ctx, keep)
        theta = _theta(rng, kind, ctx.schedule.S)
        f, g = _adjoint(ctx, theta)
        assert f == batch_loss(kind, theta, ctx)
        public = _public_loss(kind, ctx)
        np.testing.assert_allclose(g, five_point_gradient(public, theta, 1e-4), rtol=1e-4, atol=1e-9)
        np.testing.assert_allclose(g, central_gradient(public, theta, 1e-6), rtol=1e-4, atol=1e-8)

    def test_pigdm_at_zero_r(self):
        # pigdm_from_dps starts every r at 0, where the loss is even in r.
        rng = np.random.default_rng(16)
        ctx = _small_ctx(rng, kind="pigdm")
        S = ctx.schedule.S
        init = pigdm_from_dps(rng.uniform(-0.5, 0.5, S), ctx.spec.sigma_y)
        f, g = _adjoint(ctx, init.theta)
        assert f == weights_loss(init, ctx)
        np.testing.assert_array_equal(g[S:], 0.0)
        public = central_gradient(_public_loss("pigdm", ctx), init.theta, 1e-6)
        np.testing.assert_allclose(g, public, rtol=1e-4, atol=1e-8)

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 10),
        S=st.integers(1, 8),
        kind=st.sampled_from(["dps", "pigdm"]),
        K=st.sampled_from([0, 1, 2]),
    )
    def test_property_random_contexts(self, seed, d, S, kind, K):
        # K = 0 stands for the closed-form average over measurements.
        rng = np.random.default_rng(seed)
        ctx = _small_ctx(rng, d=d, S=S, kind=kind, K=max(K, 1))
        if K == 0:
            ctx = replace(ctx, observations=None)
        theta = _theta(rng, kind, S)
        f, g = _adjoint(ctx, theta)
        assert f == batch_loss(kind, theta, ctx)
        public = central_gradient(_public_loss(kind, ctx), theta, 1e-6)
        np.testing.assert_allclose(g, public, rtol=1e-4, atol=1e-8 * max(1.0, f))


class TestOptimizeWeights:
    def test_descends_and_respects_bounds(self):
        rng = np.random.default_rng(2)
        for kind in ("dps", "pigdm"):
            ctx = _small_ctx(rng, kind=kind)
            init = default_init(ctx)
            sol = optimize_weights(ctx, init, OptimizeOptions(max_iters=300))
            assert sol.final_loss <= weights_loss(init, ctx) + 1e-12
            assert np.isclose(sol.final_loss, weights_loss(sol.weights, ctx), rtol=1e-12)
            packed = sol.weights.zeta if kind == "dps" else np.r_[sol.weights.g, sol.weights.r]
            assert np.all(packed >= -5.0) and np.all(packed <= 5.0)
            if kind == "pigdm":
                assert np.all(sol.weights.r >= 0)

    def test_loss_calls_are_the_start_plus_the_solver_requests(self):
        # One evaluation of the starting point, then one combined loss and
        # gradient evaluation per L-BFGS-B request; no iterate is re-evaluated.
        rng = np.random.default_rng(14)
        ctx = _small_ctx(rng, d=12, S=6)
        evaluate, minimize = optimizer.loss_and_gradient, optimizer.minimize
        calls, results = [], []

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)

        def recorded_minimize(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "loss_and_gradient", counted)
            mp.setattr(optimizer, "minimize", recorded_minimize)
            optimize_weights(ctx, default_init(ctx))
        (result,) = results
        assert result.nfev == result.njev
        assert len(calls) == 1 + result.nfev

    def test_step_table_is_built_once_per_solve(self):
        # Regression: the S-step coefficient table used to be rebuilt on every
        # loss call, S * (1 + nfev + njev) step_coeffs calls per solve.
        rng = np.random.default_rng(20)
        for kind in ("dps", "pigdm"):
            ctx = _small_ctx(rng, d=10, S=9, kind=kind)
            calls = []

            def counted(*args, step_coeffs=transfer.step_coeffs):
                calls.append(1)
                return step_coeffs(*args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(transfer, "step_coeffs", counted)
                sol = optimize_weights(ctx, default_init(ctx))
            assert sol.iterations > 1
            assert len(calls) == ctx.schedule.S

    def test_non_finite_gradient_raises(self):
        rng = np.random.default_rng(21)
        ctx = _small_ctx(rng)
        evaluate = optimizer.loss_and_gradient
        calls = []

        def poisoned(*args):
            f, g = evaluate(*args)
            calls.append(1)
            return f, (g if len(calls) == 1 else np.full_like(g, np.nan))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "loss_and_gradient", poisoned)
            with pytest.raises(ValueError, match="non-finite loss or gradient"):
                optimize_weights(ctx, default_init(ctx))

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
        assert sol.final_loss <= weights_loss(pig, pigdm_ctx) + 1e-9
        pig_sol = optimize_weights(pigdm_ctx, default_init(pigdm_ctx))
        assert pig_sol.final_loss <= weights_loss(pig, pigdm_ctx) + 1e-9


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
        # The gains scale by S_old / S_new; r is resampled unscaled.
        np.testing.assert_allclose(out.zeta, np.full(19, 0.42 * 7 / 19), atol=1e-15)
        wp = WeightSchedule.pigdm(np.full(3, 1.0), np.full(3, 0.2))
        out = interpolate_weights(wp, 11)
        np.testing.assert_allclose(out.g, np.full(11, 3 / 11))
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

    def test_truncated_solve_reports_all_bin_loss(self):
        rng = np.random.default_rng(13)
        ctx = _small_ctx(rng)
        _, _, keep = reduce_dimensions(ctx.prior, ctx.spec, 5)
        sol = optimize_weights(ctx, default_init(ctx), OptimizeOptions(keep_dims=5))
        assert sol.final_loss == weights_loss(sol.weights, ctx)
        kept = optimizer._reduced_context(ctx, keep)
        assert sol.final_loss > weights_loss(sol.weights, kept)
