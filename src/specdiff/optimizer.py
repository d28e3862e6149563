"""Box-constrained minimization of the weight-schedule losses.

The solve itself is delegated to L-BFGS-B.  A solve builds its context's
step table once, with its workspace; every point the solver requests is then
one forward sweep for the loss and one reverse sweep for its exact gradient,
both returned by one call (``jac=True``) and both reusing that workspace.
The start is evaluated once: it is checked before the solve, and the
solver's first request, the same clipped vector, is answered from that
evaluation.  Warm-starting across step counts (the ladder) keeps
long schedules in a good basin, and eigen-truncation (``keep_dims``) solves
on the bins with the largest prior eigenvalues only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .objective import LossContext, batch_loss, loss_and_gradient
from .schedule import ddim_subsequence, linear_ddpm_schedule
from .spectral import DegradationSpec, Observation, SpectralPrior
from .transfer import DPS, PIGDM, StepTable, WeightSchedule, pigdm_heuristic_weights

__all__ = [
    "OptimizeOptions",
    "WeightSolution",
    "optimize_weights",
    "iterative_ladder",
    "reduce_dimensions",
    "default_init",
    "interpolate_weights",
    "pigdm_from_dps",
]

DEFAULT_BOUNDS = (-5.0, 5.0)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use.

    Importing scipy.optimize roughly doubles the start-up time and the memory
    of a CLI run; commands that never solve should not pay for it.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


@dataclass(frozen=True)
class OptimizeOptions:
    bounds: tuple[float, float] = DEFAULT_BOUNDS
    max_iters: int = 2500
    f_tol: float = 1e-6
    ladder: tuple[int, ...] | None = None
    keep_dims: int | None = None

    def __post_init__(self):
        lo, hi = self.bounds
        if not lo < hi:
            raise ValueError("bounds must satisfy lo < hi")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.f_tol <= 0:
            raise ValueError("f_tol must be positive")
        ladder = self.ladder or ()
        if any(rung < 1 for rung in ladder):
            raise ValueError("ladder rungs must be positive")
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError("ladder must be strictly increasing")
        if self.keep_dims is not None and self.keep_dims < 1:
            raise ValueError("keep_dims must be positive")


@dataclass(frozen=True)
class WeightSolution:
    """A solve's weights and loss, and how its L-BFGS-B run went.

    ``success`` and ``message`` are L-BFGS-B's exit status, ``nfev`` and
    ``njev`` its loss and gradient evaluations, ``wall_s`` the seconds the
    whole solve took and ``grad_norm`` the 2-norm of the gradient at the
    point where L-BFGS-B stopped (over the kept bins of a truncated solve).
    """

    weights: WeightSchedule
    final_loss: float
    iterations: int
    success: bool
    message: str
    nfev: int
    njev: int
    wall_s: float
    grad_norm: float


def default_init(ctx: LossContext) -> WeightSchedule:
    """Standard warm start: constant 0.1 for DPS, published rule for PiGDM."""
    S = ctx.schedule.S
    if ctx.sampler_kind == DPS:
        return WeightSchedule.dps(np.full(S, 0.1))
    return pigdm_heuristic_weights(ctx.schedule)


def pigdm_from_dps(zeta: np.ndarray, sigma_y: float) -> WeightSchedule:
    """PiGDM weights that reproduce a DPS schedule exactly.

    With r = 0 the PiGDM update equals DPS with zeta = g / (2 sigma^2), so
    g = 2 sigma^2 zeta maps a DPS solution into the PiGDM family; useful as a
    warm start that the PiGDM solve can only improve on.
    """
    if sigma_y <= 0:
        raise ValueError("mapping requires sigma_y > 0")
    zeta = np.asarray(zeta, dtype=float)
    return WeightSchedule.pigdm(2.0 * sigma_y**2 * zeta, np.zeros(len(zeta)))


def _unpack(kind: str, theta: np.ndarray, S: int) -> WeightSchedule:
    if kind == DPS:
        return WeightSchedule.dps(theta.copy())
    return WeightSchedule.pigdm(theta[:S].copy(), theta[S:].copy())


def _bounds_list(kind: str, S: int, bounds: tuple[float, float]) -> list[tuple[float, float]]:
    lo, hi = bounds
    if kind == DPS:
        return [(lo, hi)] * S
    # r is a standard deviation: floored at zero whatever the box says.
    return [(lo, hi)] * S + [(max(lo, 0.0), hi)] * S


def _take_bins(
    prior: SpectralPrior, spec: DegradationSpec, idx: np.ndarray
) -> tuple[SpectralPrior, DegradationSpec]:
    """Prior and degradation restricted to the bins idx."""
    rprior = SpectralPrior(dim=len(idx), mu_f=prior.mu_f[idx], lambda0=prior.lambda0[idx])
    rspec = DegradationSpec(dim=len(idx), lambda_h=spec.lambda_h[idx], sigma_y=spec.sigma_y)
    return rprior, rspec


def _reduced_context(ctx: LossContext, idx: np.ndarray) -> LossContext:
    rprior, rspec = _take_bins(ctx.prior, ctx.spec, idx)
    robs = None
    if ctx.observations is not None:
        robs = tuple(Observation(y_f=o.y_f[idx]) for o in ctx.observations)
    return replace(ctx, prior=rprior, spec=rspec, observations=robs)


def reduce_dimensions(
    prior: SpectralPrior, spec: DegradationSpec, keep_dims: int
) -> tuple[SpectralPrior, DegradationSpec, np.ndarray]:
    """Keep the keep_dims bins with the largest prior eigenvalues.

    Ties break toward the lower index; the returned index map re-expands
    reduced results onto the full bin layout.
    """
    if not 1 <= keep_dims <= prior.dim:
        raise ValueError("keep_dims out of range")
    order = np.argsort(-prior.lambda0, kind="stable")
    keep = np.sort(order[:keep_dims])
    return (*_take_bins(prior, spec, keep), keep)


def optimize_weights(
    ctx: LossContext, init: WeightSchedule, opts: OptimizeOptions | None = None
) -> WeightSolution:
    """Minimize the context's loss over the weight schedule inside the box.

    Stops when the relative improvement drops below f_tol or after
    max_iters iterations, and never returns a point worse than the start.
    With keep_dims below the context's dimension the solve runs on the
    kept bins only, but final_loss is the loss of the returned weights on
    all bins, so truncated and full solves report on the same basis.
    """
    start = time.perf_counter()
    opts = opts or OptimizeOptions()
    if init.kind != ctx.sampler_kind:
        raise ValueError("initial weights do not match the context's sampler kind")
    if init.steps != ctx.schedule.S:
        raise ValueError("initial weights must match the schedule length")

    truncated = opts.keep_dims is not None and opts.keep_dims < ctx.prior.dim
    work_ctx = ctx
    if truncated:
        _, _, keep = reduce_dimensions(ctx.prior, ctx.spec, opts.keep_dims)
        work_ctx = _reduced_context(ctx, keep)

    kind = ctx.sampler_kind
    S = ctx.schedule.S
    theta0 = np.clip(init.theta, *opts.bounds)
    if kind == PIGDM:
        theta0[S:] = np.maximum(theta0[S:], 0.0)

    table = StepTable(kind, work_ctx.prior, work_ctx.spec, work_ctx.schedule)
    f0, grad0 = loss_and_gradient(table, theta0, work_ctx)
    if not np.isfinite(f0):
        raise ValueError("invalid starting point")
    theta0_bytes = theta0.tobytes()

    def fun(theta: np.ndarray) -> tuple[float, np.ndarray]:
        # L-BFGS-B's first request is theta0 itself, evaluated above.
        if theta.tobytes() == theta0_bytes:
            f, grad = f0, grad0.copy()
        else:
            f, grad = loss_and_gradient(table, theta, work_ctx)
        if not (np.isfinite(f) and np.all(np.isfinite(grad))):
            raise ValueError("non-finite loss or gradient")
        return f, grad

    result = minimize(
        fun,
        theta0,
        jac=True,
        method="L-BFGS-B",
        bounds=_bounds_list(kind, S, opts.bounds),
        options={"maxiter": opts.max_iters, "ftol": opts.f_tol, "maxfun": 10**7},
    )
    theta_best = np.clip(result.x, *opts.bounds)
    f_best = float(result.fun)
    if f_best > f0:
        theta_best, f_best = theta0, f0
    if truncated:
        f_best = batch_loss(kind, theta_best, ctx)
    return WeightSolution(
        weights=_unpack(kind, theta_best, S),
        final_loss=f_best,
        iterations=int(result.nit),
        success=bool(result.success),
        message=str(result.message),
        nfev=int(result.nfev),
        njev=int(result.njev),
        wall_s=time.perf_counter() - start,
        grad_norm=float(np.linalg.norm(result.jac)),
    )


def _interp_to(values: np.ndarray, S_new: int) -> np.ndarray:
    """Resample a per-step vector onto S_new steps by normalized position."""
    S_old = len(values)
    pos_old = np.arange(1, S_old + 1) / S_old
    pos_new = np.arange(1, S_new + 1) / S_new
    return np.interp(pos_new, pos_old, values)


def interpolate_weights(weights: WeightSchedule, S_new: int) -> WeightSchedule:
    """Resample weights onto a new step count by normalized position s/S.

    The guidance gains (zeta, g) are multiplied by the step ratio S_old/S_new,
    keeping the summed guidance effect roughly constant; the PiGDM
    uncertainty r tracks the noise level and is never rescaled.
    """
    scale = weights.steps / S_new
    if weights.kind == DPS:
        return WeightSchedule.dps(scale * _interp_to(weights.zeta, S_new))
    return WeightSchedule.pigdm(scale * _interp_to(weights.g, S_new), _interp_to(weights.r, S_new))


def iterative_ladder(ctx: LossContext, opts: OptimizeOptions, on_solve=None) -> WeightSolution:
    """Solve progressively over increasing step counts, warm-starting each rung.

    Every rung solves from the interpolated previous solution and from the
    default initialization, keeping the better result: warm starts converge
    fast when the basin transfers across step counts but can drift into worse
    local minima, and retrying the default start caps that risk.  Returns the
    best solution of the final rung; on_solve(S, solution), if given, is
    called with every solve of every rung.
    """
    if not opts.ladder:
        raise ValueError("empty ladder")
    ladder = list(opts.ladder)
    if ladder[-1] != ctx.schedule.S:
        raise ValueError("ladder must end at the target step count")

    full = linear_ddpm_schedule(ctx.schedule.T_full)
    weights = None
    solution = None
    for rung, S_r in enumerate(ladder):
        # The final rung must use the caller's schedule verbatim so losses stay
        # comparable even when it was not built by the default subsequencing.
        sched_r = ctx.schedule if rung == len(ladder) - 1 else ddim_subsequence(full, S_r)
        rung_ctx = replace(ctx, schedule=sched_r)
        inits = [default_init(rung_ctx)]
        if weights is not None:
            inits.append(interpolate_weights(weights, sched_r.S))
        candidates = [optimize_weights(rung_ctx, init, opts) for init in inits]
        if on_solve is not None:
            for candidate in candidates:
                on_solve(sched_r.S, candidate)
        solution = min(candidates, key=lambda sol: sol.final_loss)
        weights = solution.weights
    return solution
