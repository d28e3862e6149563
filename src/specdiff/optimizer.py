"""Box-constrained minimization of the weight-schedule losses.

The solve is L-BFGS-B (Byrd, Lu, Nocedal and Zhu, 1995), run by ``minimize``:
a short reverse-communication loop over ``setulb``, the compiled step in
scipy's ``scipy.optimize._lbfgsb`` extension, which it loads from its file.
Importing ``scipy.optimize`` to reach it would run that package's
``__init__``, which pulls in scipy.linalg, sparse, special, fft, spatial and
HiGHS: in a fresh process after ``import specdiff.cli`` that took RSS from
33 to 78 MiB and 0.39-0.48 s, where loading the extension alone adds
2.6 MiB and 0.015 s (scipy 1.17.1, Python 3.11).  Commands that never solve
load neither.

Each thing a solve uses is decided once.  The ``LossContext`` owns its step
table, which every solve on it reuses: each point L-BFGS-B requests is one
``loss_and_gradient`` call, a forward sweep for the loss and a reverse sweep
for its exact gradient.  The sampler's family owns the box, PiGDM's r >= 0
included.  ``optimize_weights`` clips the start into it, evaluates it once and
hands that evaluation to ``minimize``.  ``iterative_ladder`` owns the route:
warm starts up a ladder of step counts, or one cold solve.  Eigen-truncation
(``keep_dims``) lives in one private helper, ``_kept_bins``: a truncated solve
runs on the context it returns, the bins with the largest prior eigenvalues,
and its loss is then rescored on all bins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .objective import LossContext, batch_loss, loss_and_gradient
from .schedule import ddim_subsequence
from .spectral import DegradationSpec, Observation, SpectralPrior
from .transfer import DEFAULT_BOUNDS, FAMILIES, WeightSchedule

__all__ = [
    "OptimizeOptions",
    "WeightSolution",
    "optimize_weights",
    "iterative_ladder",
    "default_init",
    "interpolate_weights",
    "pigdm_from_dps",
]


# setulb's reverse-communication codes: task[0] is the state, task[1] the
# detail.  The message texts are scipy's, so a failed solve reports the same
# line; 502 and 505, which only scipy's own loop sets, are left out.
_FG, _NEW_X, _CONVERGENCE, _STOP, _MAX_ITERS = 3, 1, 4, 5, 504
_STATUS = ("START", "NEW_X", "RESTART", "FG", "CONVERGENCE", "STOP", "WARNING", "ERROR", "ABNORMAL")
_TASK = {
    0: "", 301: "", 302: "",
    401: "NORM OF PROJECTED GRADIENT <= PGTOL",
    402: "RELATIVE REDUCTION OF F <= FACTR*EPSMCH",
    501: "CPU EXCEEDING THE TIME LIMIT",
    503: "PROJECTED GRADIENT IS SUFFICIENTLY SMALL",
    504: "TOTAL NO. OF ITERATIONS REACHED LIMIT",
    601: "ROUNDING ERRORS PREVENT PROGRESS",
    602: "STP = STPMAX",
    603: "STP = STPMIN",
    604: "XTOL TEST SATISFIED",
    701: "NO FEASIBLE SOLUTION",
    702: "FACTR < 0",
    703: "FTOL < 0",
    704: "GTOL < 0",
    705: "XTOL < 0",
    706: "STP < STPMIN",
    707: "STP > STPMAX",
    708: "STPMIN < 0",
    709: "STPMAX < STPMIN",
    710: "INITIAL G >= 0",
    711: "M <= 0",
    712: "N <= 0",
    713: "INVALID NBD",
}
# A trial point's non-finite loss or gradient ends the solve: setulb, handed
# an infinite loss, can stop at once and report CONVERGENCE.
_NON_FINITE = "ABNORMAL: NON-FINITE LOSS OR GRADIENT AT A TRIAL POINT"
_KERNEL = "scipy.optimize._lbfgsb"
_SETULB_CALL = "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"


def _setulb():
    """scipy's compiled L-BFGS-B step, loaded from its file on first use.

    ``scipy.optimize``'s ``__init__`` is skipped (see the module docstring);
    scipy's own runs, since it sets up the libraries its extensions link
    against.  Raises ImportError when the installed scipy has no setulb with
    the call the driver makes.
    """
    import importlib.machinery
    import importlib.util
    import os
    import sys

    import scipy

    module = sys.modules.get(_KERNEL)
    if module is None:
        directory = os.path.join(os.path.dirname(scipy.__file__), "optimize")
        paths = [os.path.join(directory, "_lbfgsb" + sfx) for sfx in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is not None:
            loader = importlib.machinery.ExtensionFileLoader(_KERNEL, path)
            spec = importlib.util.spec_from_file_location(_KERNEL, path, loader=loader)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            sys.modules[_KERNEL] = module
    setulb = getattr(module, "setulb", None)
    if setulb is None or (setulb.__doc__ or "").split("\n")[0] != _SETULB_CALL:
        raise ImportError(
            f"specdiff needs scipy>=1.17, whose {_KERNEL} provides {_SETULB_CALL}; "
            f"found scipy {scipy.__version__}"
        )
    return setulb


@dataclass(frozen=True)
class MinimizeResult:
    """Where L-BFGS-B stopped: the point, its loss and gradient, and the run's counts.

    ``nfev`` counts the evaluations of fun, the start's included; scipy
    reports it for the loss and again for the gradient, which fun returns too.
    """

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nit: int
    nfev: int
    success: bool
    message: str


def minimize(
    fun, x0: np.ndarray, bounds: tuple[np.ndarray, np.ndarray], max_iters: int, f_tol: float, start
) -> MinimizeResult:
    """Minimize fun over the box bounds = (lower, upper) with L-BFGS-B.

    fun(x) returns the loss and its gradient.  This is scipy's
    ``minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=...,
    options={"maxiter": max_iters, "ftol": f_tol})`` step for step: the same
    memory (m = 10), projected-gradient tolerance (1e-5), line-search limit
    (20) and factr = f_tol / eps; the same bound codes, where an infinite
    bound is absent; the same evaluations, one at the clipped start and one
    more only where setulb asks at a point that differs from the last one;
    and the same status message.  Every iterate therefore has scipy's bits.
    ``start`` is fun at the clipped x0, which the caller has already
    evaluated and checked; ``nfev`` counts it as the first evaluation.  Where
    scipy would hand setulb a non-finite loss or gradient, the solve ends
    instead, failed, at its last finite evaluation.
    """
    setulb = _setulb()
    lower, upper = (np.asarray(b, dtype=float) for b in bounds)
    if np.any(upper < lower):
        raise ValueError("An upper bound is less than the corresponding lower bound.")
    x = np.clip(np.asarray(x0, dtype=float).ravel(), lower, upper)
    has_lower, has_upper = ~np.isinf(lower), ~np.isinf(upper)
    # setulb's nbd: 0 unbounded, 1 lower only, 2 both, 3 upper only.
    nbd = np.array([[0, 3], [1, 2]], dtype=np.int32)[has_lower.astype(int), has_upper.astype(int)]
    low = np.where(has_lower, lower, 0.0)
    up = np.where(has_upper, upper, 0.0)

    n, m = x.size, 10
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    factr = f_tol / np.finfo(float).eps

    x_eval = x.copy()
    f_eval, g_eval = start
    nfev = 1
    nit = 0
    while True:
        g = g.astype(np.float64)
        setulb(m, x, low, up, nbd, f, g, factr, 1e-5, wa, iwa, task, lsave, isave, dsave, 20, ln_task)
        if task[0] == _FG:
            if not np.array_equal(x, x_eval):
                f_new, g_new = fun(x.copy())
                nfev += 1
                if not (np.isfinite(f_new) and np.all(np.isfinite(g_new))):
                    return MinimizeResult(x_eval, f_eval, g_eval, nit, nfev, False, _NON_FINITE)
                x_eval, f_eval, g_eval = x.copy(), f_new, g_new
            f, g = f_eval, g_eval
        elif task[0] == _NEW_X:
            nit += 1
            if nit >= max_iters:
                task[:] = _STOP, _MAX_ITERS
        else:
            break
    return MinimizeResult(
        x=x,
        fun=f,
        jac=g,
        nit=nit,
        nfev=nfev,
        success=bool(task[0] == _CONVERGENCE),
        message=f"{_STATUS[task[0]]}: {_TASK[task[1]]}",
    )


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
        if not 0 < self.f_tol < np.inf:
            raise ValueError("f_tol must be positive and finite")
        if self.ladder is not None and not self.ladder:
            raise ValueError("empty ladder")
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

    ``success`` and ``message`` are L-BFGS-B's exit status, ``nfev`` its
    evaluations of the loss with its gradient, ``wall_s`` the seconds the
    whole solve took and ``grad_norm`` the 2-norm of the gradient at the
    point where L-BFGS-B stopped (over the kept bins of a truncated solve).
    """

    weights: WeightSchedule
    final_loss: float
    iterations: int
    success: bool
    message: str
    nfev: int
    wall_s: float
    grad_norm: float


def default_init(ctx: LossContext) -> WeightSchedule:
    """The family's standard start: constant 0.1 for DPS, the published rule for PiGDM."""
    return WeightSchedule(ctx.sampler_kind, FAMILIES[ctx.sampler_kind].start(ctx.schedule))


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


def _kept_bins(ctx: LossContext, keep_dims: int) -> LossContext:
    """The context on its keep_dims bins of largest prior eigenvalue, in index order.

    Ties break toward the lower index; the observations keep the same bins.
    """
    keep = np.sort(np.argsort(-ctx.prior.lambda0, kind="stable")[:keep_dims])
    prior, spec, obs = ctx.prior, ctx.spec, ctx.observations
    return replace(
        ctx,
        prior=SpectralPrior(mu_f=prior.mu_f[keep], lambda0=prior.lambda0[keep]),
        spec=DegradationSpec(lambda_h=spec.lambda_h[keep], sigma_y=spec.sigma_y),
        observations=None if obs is None else tuple(Observation(y_f=o.y_f[keep]) for o in obs),
    )


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
    work_ctx = _kept_bins(ctx, opts.keep_dims) if truncated else ctx

    kind = ctx.sampler_kind
    box = FAMILIES[kind].box(ctx.schedule.S, opts.bounds)
    theta0 = np.clip(init.theta, *box)

    def fun(theta: np.ndarray) -> tuple[float, np.ndarray]:
        return loss_and_gradient(theta, work_ctx)

    # A trial point may overflow the loss; minimize ends the solve there, so
    # its warnings would only repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        f0, grad0 = fun(theta0)
        if not (np.isfinite(f0) and np.all(np.isfinite(grad0))):
            raise ValueError("invalid starting point: non-finite loss or gradient")
        result = minimize(fun, theta0, box, opts.max_iters, opts.f_tol, start=(f0, grad0))
    theta_best = np.clip(result.x, *box)
    f_best = float(result.fun)
    if f_best > f0:
        theta_best, f_best = theta0, f0
    if truncated:
        f_best = batch_loss(kind, theta_best, ctx)
    return WeightSolution(
        weights=WeightSchedule(kind, theta_best),
        final_loss=f_best,
        iterations=int(result.nit),
        success=bool(result.success),
        message=str(result.message),
        nfev=int(result.nfev),
        wall_s=time.perf_counter() - start,
        grad_norm=float(np.linalg.norm(result.jac)),
    )


def interpolate_weights(weights: WeightSchedule, S_new: int) -> WeightSchedule:
    """Resample weights onto a new step count by normalized position s/S.

    The guidance gain, each family's first field (zeta, g), is multiplied by
    the step ratio S_old/S_new, keeping the summed guidance effect roughly
    constant; PiGDM's uncertainty r tracks the noise level and is never rescaled.
    """
    fields = FAMILIES[weights.kind].fields
    pos_old, pos_new = (np.arange(1, S + 1) / S for S in (weights.steps, S_new))
    gain, *rest = (np.interp(pos_new, pos_old, getattr(weights, f)) for f in fields)
    return WeightSchedule(weights.kind, np.concatenate([weights.steps / S_new * gain, *rest]))


def iterative_ladder(ctx: LossContext, opts: OptimizeOptions, on_solve=None) -> WeightSolution:
    """Solve the context up the ladder of step counts, or cold without one (None).

    The rungs are the ladder's step counts below the context's S, cut from
    the schedule's own table (``Schedule.full``) by ``ddim_subsequence``, then
    the context itself.  Every rung solves from the default start and, after
    the first, from the interpolated previous solution, keeping the better:
    warm starts converge fast when the basin transfers across step counts but
    can drift into worse local minima, which retrying the default start caps.
    Returns the final rung's best; on_solve(S, solution) sees every solve.
    """
    rungs = [
        replace(ctx, schedule=ddim_subsequence(ctx.schedule.full, S_r))
        for S_r in opts.ladder or ()
        if S_r < ctx.schedule.S
    ]
    solution = None
    for rung_ctx in rungs + [ctx]:
        S_r = rung_ctx.schedule.S
        inits = [default_init(rung_ctx)]
        if solution is not None:
            inits.append(interpolate_weights(solution.weights, S_r))
        candidates = [optimize_weights(rung_ctx, init, opts) for init in inits]
        if on_solve is not None:
            for candidate in candidates:
                on_solve(S_r, candidate)
        solution = min(candidates, key=lambda sol: sol.final_loss)
    return solution
