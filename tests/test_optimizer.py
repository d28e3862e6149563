import sys
import types
import warnings
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
    sample_prior,
    triples_loss,
    triples_loss_cotangents,
    weights_loss,
)
from specdiff import objective, optimizer, transfer

from oracles import central_gradient, five_point_gradient, random_prior_arrays


def _small_ctx(rng, d=8, S=6, kind="dps", K=1):
    mu_f, lam = random_prior_arrays(d, rng)
    prior = SpectralPrior(mu_f=mu_f, lambda0=lam)
    spec = DegradationSpec(
        lambda_h=np.fft.fft(rng.standard_normal(d)), sigma_y=float(rng.uniform(0.1, 0.6))
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
    return loss_and_gradient(theta, ctx)


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
            ctx = optimizer._kept_bins(ctx, 7)
        theta = _theta(rng, kind, ctx.schedule.S)
        f, g = _adjoint(ctx, theta)
        assert f == batch_loss(kind, theta, ctx)
        public = _public_loss(kind, ctx)
        np.testing.assert_allclose(g, five_point_gradient(public, theta, 1e-4), rtol=1e-4, atol=1e-9)
        np.testing.assert_allclose(g, central_gradient(public, theta, 1e-6), rtol=1e-4, atol=1e-8)

    @pytest.mark.parametrize("kind", ["dps", "pigdm"])
    @pytest.mark.parametrize("mode", ["K=1", "averaged"])
    def test_non_hermitian_h(self, kind, mode):
        # The reverse sweep reads D2's cotangent through conj(h); with a
        # complex h that no real operator has, its phase reaches the gradient.
        rng = np.random.default_rng(17)
        d, S = 9, 6
        ctx = _small_ctx(rng, d=d, S=S, kind=kind)
        spec = replace(ctx.spec, lambda_h=rng.standard_normal(d) + 1j * rng.standard_normal(d))
        obs = None if mode == "averaged" else (degrade(sample_prior(ctx.prior, rng), spec, rng),)
        ctx = replace(ctx, spec=spec, observations=obs)
        theta = _theta(rng, kind, S)
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


    @pytest.mark.parametrize("kind", ["dps", "pigdm"])
    @pytest.mark.parametrize("mode", ["K=1", "K=3", "averaged"])
    def test_loss_equals_batch_loss_bits_at_reference_size(self, kind, mode):
        # The context computes its posterior bins and stacked measurements on
        # its first loss; later calls, and either entry point, reuse them.
        rng = np.random.default_rng(25)
        ctx = _paper_ctx(rng, S=200, kind=kind)
        obs = tuple(degrade(sample_prior(ctx.prior, rng), ctx.spec, rng) for _ in range(3))
        ctx = replace(ctx, observations={"K=1": obs[:1], "K=3": obs, "averaged": None}[mode])
        for _ in range(3):
            theta = _theta(rng, kind, ctx.schedule.S)
            f, _ = loss_and_gradient(theta, ctx)
            assert f == batch_loss(kind, theta, ctx)
            assert f == batch_loss(kind, theta, replace(ctx))

    @pytest.mark.parametrize("kind", ["dps", "pigdm"])
    @pytest.mark.parametrize("mode", ["K=1", "K=3", "averaged"])
    def test_public_entries_share_one_computation(self, kind, mode):
        # The loss and gradient are the triple's loss and the pullback of its
        # cotangents, as the public triple functions give them, bit for bit.
        rng = np.random.default_rng(27)
        ctx = _small_ctx(rng, d=12, S=7, kind=kind, K=1 if mode == "K=1" else 3)
        if mode == "averaged":
            ctx = replace(ctx, observations=None)
        ys = None if ctx.observations is None else np.stack([o.y_f for o in ctx.observations])
        table = StepTable(kind, ctx.prior, ctx.spec, ctx.schedule)

        def score(*triple):
            return (
                triples_loss(*triple, ctx.prior, ctx.spec, ys),
                triples_loss_cotangents(*triple, ctx.prior, ctx.spec, ys),
            )

        for _ in range(3):
            theta = _theta(rng, kind, ctx.schedule.S)
            f, g = loss_and_gradient(theta, ctx)
            f_public, g_public = table.value_and_grad(theta, score)
            assert (f, g.tobytes()) == (f_public, g_public.tobytes())

    def test_posterior_bins_computed_once_per_solve(self):
        rng = np.random.default_rng(26)
        ctx = _small_ctx(rng, d=10, S=6, K=2)
        # The context's target holds the posterior bins and the stacked
        # measurements; every loss and gradient of the solve reads the one built.
        target, calls = objective._Target, []

        def counted(prior, spec, ys):
            calls.append(ys)
            return target(prior, spec, ys)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(objective, "_Target", counted)
            sol = optimize_weights(ctx, default_init(ctx))
        assert sol.nfev > 1
        assert len(calls) == 1
        assert calls[0].shape == (2, 10)


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
        # One combined loss and gradient evaluation per L-BFGS-B request; the
        # first request is the clipped start, which the solve evaluated
        # already, so that point is not computed twice.
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
        assert len(calls) == result.nfev

    def test_step_table_is_built_once_per_solve(self):
        # Regression: the S-step coefficient table used to be rebuilt on every
        # loss call, S * (1 + nfev + njev) step_coeffs calls per solve.  A
        # table now takes all S steps' coefficients from one call, and the
        # context owns it: a second solve on the same context (the ladder's
        # second start on a rung, or an extra start after the configured
        # route) used to build a table of its own.
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
                optimize_weights(ctx, sol.weights)
            assert sol.iterations > 1
            assert len(calls) == 1

    def test_non_finite_trial_point_ends_the_solve_as_failed(self):
        # A trial point whose loss or gradient is not finite used to raise,
        # which aborted the whole command.  The solve now ends there, failed,
        # at its last finite evaluation, and warns nothing.
        rng = np.random.default_rng(21)
        ctx = _small_ctx(rng)
        evaluate = optimizer.loss_and_gradient
        for poison in ("gradient", "loss"):
            evaluated = []

            def poisoned(theta, *args):
                f, g = evaluate(theta, *args)
                evaluated.append((theta.copy(), f))
                if len(evaluated) < 3:
                    return f, g
                return (f, np.full_like(g, np.nan)) if poison == "gradient" else (np.inf, g)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(optimizer, "loss_and_gradient", poisoned)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    sol = optimize_weights(ctx, default_init(ctx))
            assert not sol.success and sol.nfev == 3, poison
            assert sol.message == "ABNORMAL: NON-FINITE LOSS OR GRADIENT AT A TRIAL POINT"
            assert np.isfinite(sol.grad_norm)
            # It stopped at the second evaluation, the last finite one, which
            # optimize_weights keeps unless the start was better.
            theta, f = min(evaluated[:2], key=lambda point: point[1])
            np.testing.assert_array_equal(sol.weights.theta, theta)
            assert sol.final_loss == f

    def test_start_with_finite_loss_and_non_finite_gradient_raises(self):
        # The start's evaluation is handed to L-BFGS-B, not requested by it,
        # so its gradient is checked where it is made.
        rng = np.random.default_rng(21)
        ctx = _small_ctx(rng)
        evaluate = optimizer.loss_and_gradient

        def poisoned(*args):
            f, g = evaluate(*args)
            return f, np.full_like(g, np.inf)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "loss_and_gradient", poisoned)
            with pytest.raises(ValueError, match="non-finite loss or gradient"):
                optimize_weights(ctx, default_init(ctx))

    def test_start_of_another_kind_or_length_rejected(self):
        ctx = _small_ctx(np.random.default_rng(23))
        S = ctx.schedule.S
        with pytest.raises(ValueError, match="do not match the context's sampler kind"):
            optimize_weights(ctx, WeightSchedule.pigdm(np.ones(S), np.ones(S)))
        with pytest.raises(ValueError, match="must match the schedule length"):
            optimize_weights(ctx, WeightSchedule.dps(np.ones(S + 1)))

    def test_mapping_to_pigdm_needs_noise(self):
        for sigma_y in (0.0, -0.1):
            with pytest.raises(ValueError, match="requires sigma_y > 0"):
                pigdm_from_dps(np.ones(3), sigma_y)

    def test_pigdm_box_below_zero_rejected(self):
        # r >= 0 leaves PiGDM nothing in a box whose upper end is below 0;
        # the solve used to hand L-BFGS-B the empty box [0, hi].  DPS solves.
        ctx = _small_ctx(np.random.default_rng(22), kind="pigdm")
        opts = OptimizeOptions(bounds=(-5.0, -1.0))
        with pytest.raises(ValueError, match="upper end -1 is below 0"):
            optimize_weights(ctx, default_init(ctx), opts)
        dps = replace(ctx, sampler_kind="dps")
        assert np.all(optimize_weights(dps, default_init(dps), opts).weights.zeta <= -1.0)

    def test_solution_carries_solver_telemetry(self):
        rng = np.random.default_rng(27)
        ctx = _small_ctx(rng, d=12, S=6)
        evaluate, calls = optimizer.loss_and_gradient, []

        def counted(*args):
            calls.append(1)
            return evaluate(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "loss_and_gradient", counted)
            sol = optimize_weights(ctx, default_init(ctx))
        assert sol.success is True
        assert sol.message.startswith("CONVERGENCE")
        # The solver's first evaluation is the start's, made once.
        assert sol.nfev == len(calls)
        assert sol.iterations <= sol.nfev
        assert 0.0 < sol.wall_s < 60.0
        # The exit gradient is the one L-BFGS-B took at the returned point.
        _, g = _adjoint(ctx, sol.weights.zeta)
        assert sol.grad_norm == np.linalg.norm(g)

    def test_diverging_pigdm_default_start_fails_as_before(self):
        # The published PiGDM weighting diverges at S = 200 on the reference
        # model (loss about 1e37, gradient about 1e51).  The solve is reported
        # as failed, ABNORMAL, and returns a point no worse than the start.
        rng = np.random.default_rng(0)
        ctx = _paper_ctx(rng, S=200, kind="pigdm")
        init = default_init(ctx)
        f0 = weights_loss(init, ctx)
        assert f0 > 1e30
        sol = optimize_weights(ctx, init)
        assert sol.success is False
        assert sol.message.startswith("ABNORMAL")
        assert sol.final_loss <= f0
        assert sol.final_loss == weights_loss(sol.weights, ctx)
        assert np.isfinite(sol.grad_norm)

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
        prior = SpectralPrior(mu_f=np.zeros(1, complex), lambda0=lam)
        spec = DegradationSpec(lambda_h=np.ones(1, complex), sigma_y=0.5)
        sched = Schedule(alpha_bar=np.array([0.5]))
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
        # A NaN start is refused by WeightSchedule itself; a finite start in
        # a box wide enough to overflow the loss reaches the solver's check.
        start = WeightSchedule.dps(np.full(ctx.schedule.S, 1e200))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="invalid starting point"):
                optimize_weights(ctx, start, OptimizeOptions(bounds=(-1e300, 1e300)))

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

    @pytest.mark.parametrize("kind", ["dps", "pigdm"])
    def test_no_ladder_is_the_cold_start_bit_for_bit(self, kind):
        # Without a ladder the route is one solve from the default start, so
        # the command line needs no branch of its own for it.
        ctx = _small_ctx(np.random.default_rng(6), kind=kind)
        cold = optimize_weights(ctx, default_init(ctx))
        routed = iterative_ladder(replace(ctx), OptimizeOptions())
        assert np.array_equal(routed.weights.theta, cold.weights.theta)
        assert routed.final_loss == cold.final_loss
        assert (routed.message, routed.nfev) == (cold.message, cold.nfev)

    def test_rungs_at_or_above_S_are_dropped(self):
        # The route keeps the ladder's rungs below S and ends at S, as the
        # command line's own rung filter once did; such a ladder used to raise.
        ctx = _small_ctx(np.random.default_rng(9))
        S = ctx.schedule.S
        seen, want = [], []
        got = iterative_ladder(
            ctx, OptimizeOptions(ladder=(2, 4, S, S + 3)), on_solve=lambda *a: seen.append(a)
        )
        filtered = iterative_ladder(
            replace(ctx), OptimizeOptions(ladder=(2, 4, S)), on_solve=lambda *a: want.append(a)
        )
        assert [s for s, _ in seen] == [s for s, _ in want] == [2, 4, 4, S, S]
        for (_, a), (_, b) in zip(seen, want):
            assert np.array_equal(a.weights.zeta, b.weights.zeta)
            assert a.final_loss == b.final_loss
        assert np.array_equal(got.weights.zeta, filtered.weights.zeta)

    def test_rungs_of_a_direct_schedule_are_cut_from_its_own_table(self, monkeypatch):
        # The rungs once came from the linear-beta table of T_full steps,
        # whatever the context's schedule was: here the S = 4 rung ran on
        # levels 0.994..0.886, far from the context's own steps 3, 6, 9 and 12
        # (0.819..0.05), and T_full = 3 made the same ladder raise.
        rng = np.random.default_rng(11)
        ctx = replace(_small_ctx(rng, S=6), schedule=Schedule(alpha_bar=np.linspace(0.99, 0.05, 12)))
        rungs, solve = [], optimizer.optimize_weights

        def recorded(rung_ctx, init, opts):
            rungs.append(rung_ctx.schedule)
            return solve(rung_ctx, init, opts)

        monkeypatch.setattr(optimizer, "optimize_weights", recorded)
        iterative_ladder(ctx, OptimizeOptions(ladder=(4, 12), max_iters=5))
        assert [r.S for r in rungs] == [4, 12, 12]
        want = ddim_subsequence(ctx.schedule.alpha_bar, 4).alpha_bar
        assert rungs[0].alpha_bar.tobytes() == want.tobytes()
        np.testing.assert_array_equal(want, ctx.schedule.alpha_bar[[2, 5, 8, 11]])
        assert all(r is ctx.schedule for r in rungs[1:])

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError, match="empty ladder"):
            OptimizeOptions(ladder=())

    def test_non_increasing_ladder_rejected(self):
        rng = np.random.default_rng(9)
        ctx = _small_ctx(rng)
        with pytest.raises(ValueError):
            iterative_ladder(ctx, OptimizeOptions(ladder=(10, 10, ctx.schedule.S)))


class TestReduceDimensions:
    def test_identity_reduction_keeps_loss(self):
        rng = np.random.default_rng(10)
        ctx = _small_ctx(rng)
        kept = optimizer._kept_bins(ctx, ctx.prior.dim)
        pairs = [
            (kept.prior.mu_f, ctx.prior.mu_f),
            (kept.prior.lambda0, ctx.prior.lambda0),
            (kept.spec.lambda_h, ctx.spec.lambda_h),
            *((a.y_f, b.y_f) for a, b in zip(kept.observations, ctx.observations, strict=True)),
        ]
        for got, want in pairs:
            np.testing.assert_array_equal(got, want)
        sol_full = optimize_weights(ctx, default_init(ctx))
        sol_red = optimize_weights(
            ctx, default_init(ctx), OptimizeOptions(keep_dims=ctx.prior.dim)
        )
        assert np.isclose(sol_full.final_loss, sol_red.final_loss, rtol=1e-12)

    def test_ties_break_to_lower_index(self):
        prior = SpectralPrior(mu_f=np.zeros(4, complex), lambda0=np.array([1.0, 2.0, 2.0, 1.0]))
        spec = DegradationSpec(lambda_h=np.arange(4) + 1j, sigma_y=0.1)
        obs = Observation(y_f=np.arange(4) - 1j)
        ctx = LossContext(prior, spec, ddim_subsequence(linear_ddpm_schedule(100), 5), "dps", (obs,))
        kept = optimizer._kept_bins(ctx, 3)
        # The bins are told apart by h and y, which the truncation keeps with them.
        np.testing.assert_array_equal(kept.prior.lambda0, [1.0, 2.0, 2.0])
        np.testing.assert_array_equal(kept.spec.lambda_h, np.arange(3) + 1j)
        np.testing.assert_array_equal(kept.observations[0].y_f, np.arange(3) - 1j)

    def test_dominant_eigenvalue_reduction_changes_little(self):
        lam = np.array([5.0, 1e-13, 1e-13, 1e-13])
        prior = SpectralPrior(mu_f=np.zeros(4, complex), lambda0=lam)
        spec = DegradationSpec(lambda_h=np.ones(4, complex), sigma_y=0.1)
        sched = ddim_subsequence(linear_ddpm_schedule(100), 5)
        rng = np.random.default_rng(11)
        obs = degrade(sample_prior(prior, rng), spec, rng)
        ctx = LossContext(prior, spec, sched, "dps", (obs,))
        full = optimize_weights(ctx, default_init(ctx))
        reduced = optimize_weights(ctx, default_init(ctx), OptimizeOptions(keep_dims=1))
        assert np.max(np.abs(full.weights.zeta - reduced.weights.zeta)) <= 1e-4

    def test_truncated_solve_reports_all_bin_loss(self):
        rng = np.random.default_rng(13)
        ctx = _small_ctx(rng)
        sol = optimize_weights(ctx, default_init(ctx), OptimizeOptions(keep_dims=5))
        assert sol.final_loss == weights_loss(sol.weights, ctx)
        assert sol.final_loss > weights_loss(sol.weights, optimizer._kept_bins(ctx, 5))

    @pytest.mark.parametrize("kind", ["dps", "pigdm"])
    @pytest.mark.parametrize("mode", ["K=1", "K=3", "averaged"])
    def test_truncated_solve_is_the_kept_bin_solve_rescored(self, kind, mode):
        # A truncated solve is the solve on the kept bins, bit for bit, with
        # its loss then taken over all bins.
        rng = np.random.default_rng(14)
        ctx = _small_ctx(rng, d=12, S=7, kind=kind, K=1 if mode == "K=1" else 3)
        if mode == "averaged":
            ctx = replace(ctx, observations=None)
        init = default_init(ctx)
        sol = optimize_weights(ctx, init, OptimizeOptions(keep_dims=5))
        kept = optimize_weights(optimizer._kept_bins(ctx, 5), init)
        assert sol.weights.theta.tobytes() == kept.weights.theta.tobytes()
        assert sol.final_loss == weights_loss(kept.weights, ctx)
        assert (sol.iterations, sol.nfev, sol.message, sol.grad_norm) == (
            kept.iterations, kept.nfev, kept.message, kept.grad_norm
        )


def _solve_problem(ctx, init, opts):
    """The (fun, x0, bounds, max_iters, f_tol) that optimize_weights hands to minimize.

    The start's evaluation that comes with them is fun(x0), bit for bit.
    """
    problems, minimize = [], optimizer.minimize

    def recorded(*args, start):
        problems.append((args, start))
        return minimize(*args, start=start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "minimize", recorded)
        optimize_weights(ctx, init, opts)
    ((problem, (f0, g0)),) = problems
    f, g = problem[0](problem[1])
    assert (f, g.tobytes()) == (f0, g0.tobytes())
    return problem


def _assert_matches_scipy(fun, x0, bounds, max_iters, f_tol):
    """The driver's result equals scipy's L-BFGS-B on the same problem, bit for bit."""
    from scipy.optimize import minimize as scipy_minimize

    ours = optimizer.minimize(fun, x0, bounds, max_iters, f_tol, start=fun(np.clip(x0, *bounds)))
    ref = scipy_minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(*bounds)),
        options={"maxiter": max_iters, "ftol": f_tol},
    )
    assert ours.x.tobytes() == ref.x.tobytes()
    assert np.float64(ours.fun).tobytes() == np.float64(ref.fun).tobytes()
    assert ours.jac.tobytes() == ref.jac.tobytes()
    assert (ours.nit, ours.nfev, ours.nfev) == (ref.nit, ref.nfev, ref.njev)
    assert (ours.success, ours.message) == (ref.success, ref.message)
    return ours


class TestMinimize:
    """The L-BFGS-B driver against scipy.optimize.minimize, its reference."""

    @pytest.mark.parametrize(
        "kind, S, message",
        [
            pytest.param("dps", 20, "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH", id="dps-20"),
            pytest.param("dps", 200, "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH", id="dps-200"),
            pytest.param("pigdm", 20, "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH", id="pigdm-20"),
            # The published PiGDM weighting diverges at S = 200.
            pytest.param("pigdm", 200, "ABNORMAL: ", id="pigdm-200"),
        ],
    )
    def test_reference_model_solves(self, kind, S, message):
        ctx = _paper_ctx(np.random.default_rng(0), S=S, kind=kind)
        result = _assert_matches_scipy(*_solve_problem(ctx, default_init(ctx), OptimizeOptions()))
        assert result.message == message

    @pytest.mark.parametrize("kind", ["dps", "pigdm"])
    def test_iteration_limit(self, kind):
        ctx = _paper_ctx(np.random.default_rng(1), S=20, kind=kind)
        problem = _solve_problem(ctx, default_init(ctx), OptimizeOptions(max_iters=1))
        result = _assert_matches_scipy(*problem)
        assert (result.nit, result.success) == (1, False)
        assert result.message == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"

    @pytest.mark.parametrize("kind", ["dps", "pigdm"])
    @pytest.mark.parametrize(
        "bounds", [(-np.inf, np.inf), (0.0, np.inf), (-np.inf, 0.3)], ids=["free", "lower", "upper"]
    )
    def test_infinite_bounds(self, kind, bounds):
        # setulb reads an infinite bound as no bound (nbd 0, 1 or 3): a box
        # with nbd = 2 everywhere would move these iterates.
        ctx = _small_ctx(np.random.default_rng(3), kind=kind)
        problem = _solve_problem(ctx, default_init(ctx), OptimizeOptions(bounds=bounds))
        assert _assert_matches_scipy(*problem).success

    def test_convex_quadratic_stops_on_projected_gradient(self):
        A, b = np.diag([1.0, 2.0, 4.0]), np.array([1.0, -2.0, 3.0])

        def fun(x):
            return float(0.5 * x @ A @ x - b @ x), A @ x - b

        box = (np.zeros(3), np.full(3, 0.5))
        result = _assert_matches_scipy(fun, np.zeros(3), box, 100, 1e-6)
        assert result.message == "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
        np.testing.assert_array_equal(result.x, [0.5, 0.0, 0.5])

    def test_crossed_bounds_rejected(self):
        box = (np.zeros(2), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="upper bound is less than the corresponding lower bound"):
            optimizer.minimize(lambda x: (0.0, x), np.zeros(2), box, 1, 1e-6, (0.0, np.zeros(2)))

    @pytest.mark.parametrize(
        "kernel",
        [
            pytest.param(types.SimpleNamespace(), id="no-setulb"),
            pytest.param(
                types.SimpleNamespace(setulb=types.SimpleNamespace(__doc__="x,f = setulb(m,x,l,u,nbd,f,g)")),
                id="other-call",
            ),
        ],
    )
    def test_missing_or_mismatched_kernel_names_the_scipy_needed(self, kernel):
        import scipy

        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(sys.modules, "scipy.optimize._lbfgsb", kernel)
            with pytest.raises(ImportError, match=rf"scipy>=1\.17.*found scipy {scipy.__version__}"):
                optimizer.minimize(
                    lambda x: (0.0, x), np.zeros(1), (np.zeros(1), np.ones(1)), 1, 1e-6, (0.0, np.zeros(1))
                )
