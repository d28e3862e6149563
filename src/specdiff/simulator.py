"""Time-domain Monte-Carlo engine for guided DDIM sampling.

A batch enters as a real (n, d) array of time-domain states and stays on the
d // 2 + 1 bins of the half spectrum: one real FFT of the starting states,
every step as per-bin arithmetic, and the output moments taken from the
final half spectrum, with no inverse FFT.  Every operator here (prior
covariance, degradation, their regularized inverses) is a real circulant
matrix, so its multiplier is Hermitian (bin d - k is the conjugate of bin k)
and the half spectrum holds all of it; a round trip to the time domain
between steps would change nothing but rounding.

The unguided DDIM step is a x + b x0hat with the prior denoiser
x0hat = J x + (1 - ab) (ab Sigma + (1 - ab) I)^-1 mu, where
J = sqrt(ab) Sigma (ab Sigma + (1 - ab) I)^-1 is its Jacobian; per bin that
is X <- A X + B.  A guided step adds w J^T H^T E (y - H x0hat): DPS takes
w = 2 zeta and E = I, PiGDM takes w = g and E = (r^2 H H^T + sigma^2 I)^-1.
With the weights of a ``WeightSchedule`` that term is affine in the state as
well, since y - H x0hat = C - H J x with C = y - H (x0hat - J x), so it
folds into A and B.  The MAP ("optimal") denoiser is affine in the state
too, so every kind steps X <- A X + B but the DPS heuristic: its weight
zeta' / ||y - H x0hat|| (``heuristic_zeta``) depends on each trajectory's
residual, so it alone forms y - H x0hat at every step, and Parseval gives
the norm from the half spectrum.  Before the first step a batch tabulates
these per-bin multipliers for all S steps, so the loop holds only per-bin
arithmetic.  The state is stored bins by trajectories, (d // 2 + 1, n), so
that each per-bin factor scales a whole row and numpy's inner loops run over
the n trajectories, not the few bins.

Two terms vanish on bins the inputs fix.  The guidance carries a factor
conj(h), so it is exactly zero wherever the degradation multiplier h is; the
offset B is exactly zero wherever mu is and, for the fixed-weight and MAP
steps, conj(h) y too.  Each step scales every bin but forms and adds these
terms only up to their last nonzero bin, which is exact: adding a zero to a
finite state changes nothing.  A low-pass h keeps 13 of the 26 bins at
d = 50, V = 0.5, and a zero-mean prior sampler adds no offset at all.

A batch checks its states for divergence once, after its last step.  That
is exact because a non-finite entry of the state stays non-finite through
every later step: inf times a multiplier is inf or nan, inf - inf and
inf * 0 are nan, and a trajectory whose heuristic norm is inf gets zeta = 0,
so its inf residual scales to nan.  The tables are built and the steps run
under ``np.errstate(over="ignore", invalid="ignore")``, scoped to the batch,
so a diverging batch (or a weight so large that its table overflows) warns
nothing on the way; the steps also run with numpy's ufunc buffer cut to one
row of trajectories, which keeps numpy from buffering the per-bin
multipliers that broadcast along the rows.  Only a diverged batch pays to
locate the step: it takes a fresh real FFT of its starting states and replays
the same steps with a check after each, which repeats the same arithmetic and
so raises ``ValueError("diverged at step s")`` at the first non-finite step.
Final states can be finite and still too large for their moments, whose
squares overflow: ``monte_carlo`` then raises ValueError as well.

This stays an independent check on ``transfer.py``, which it takes nothing
from: its tables are built here from one ``step_coeffs_scalar`` call and
the prior and degradation multipliers, in the operator terms above.  Its
MAP step keeps the denoiser's own formula, so it checks the identity that
``transfer.py``'s ideal sampler is PiGDM at fixed weights.  Each trajectory
carries its own state and residual, so its heuristic weights are the ones
it realizes, which no closed form gives.  The tests check the half-spectrum
steps against dense matrices applied in the time domain.

Keeping only the Hermitian half of a non-Hermitian matvec would silently give
trajectories that no longer match the composed triple, so ``SimConfig``
rejects such a prior or degradation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .schedule import Schedule, step_coeffs_scalar
from .spectral import (
    DegradationSpec,
    Observation,
    SpectralPrior,
    _require_hermitian,
    _require_same_dim,
)
from .transfer import DEFAULT_BOUNDS, PIGDM, WeightSchedule

__all__ = [
    "Guidance",
    "SimConfig",
    "RunStats",
    "monte_carlo",
    "heuristic_weight_profile",
    "heuristic_zeta",
]

GUIDANCE_NONE = "none"
GUIDANCE_FIXED = "fixed"
GUIDANCE_DPS_HEURISTIC = "dps-heuristic"
GUIDANCE_OPTIMAL = "optimal"
_GUIDANCE_KINDS = (GUIDANCE_NONE, GUIDANCE_FIXED, GUIDANCE_DPS_HEURISTIC, GUIDANCE_OPTIMAL)

DEFAULT_ZETA_CAP = max(abs(b) for b in DEFAULT_BOUNDS)  # the box's largest |weight|, as the CLI's cap
_ALIGN = 64  # bytes; the start of every step-loop buffer


@dataclass(frozen=True)
class Guidance:
    """Guidance rule used inside the sampler loop."""

    kind: str
    weights: WeightSchedule | None = None
    zeta_prime: float | None = None
    cap: float = DEFAULT_ZETA_CAP

    def __post_init__(self):
        if self.kind not in _GUIDANCE_KINDS:
            raise ValueError(f"unknown guidance kind: {self.kind}")
        if self.kind == GUIDANCE_FIXED and self.weights is None:
            raise ValueError("fixed guidance requires weights")
        if self.kind == GUIDANCE_DPS_HEURISTIC:
            if self.zeta_prime is None:
                raise ValueError("dps-heuristic guidance requires zeta_prime")
            if not 0 < self.zeta_prime < np.inf:
                raise ValueError("zeta_prime must be positive and finite")

    @classmethod
    def none(cls) -> "Guidance":
        return cls(kind=GUIDANCE_NONE)

    @classmethod
    def fixed(cls, weights: WeightSchedule) -> "Guidance":
        return cls(kind=GUIDANCE_FIXED, weights=weights)

    @classmethod
    def dps_heuristic(cls, zeta_prime: float, cap: float = DEFAULT_ZETA_CAP) -> "Guidance":
        return cls(kind=GUIDANCE_DPS_HEURISTIC, zeta_prime=float(zeta_prime), cap=cap)

    @classmethod
    def optimal(cls) -> "Guidance":
        return cls(kind=GUIDANCE_OPTIMAL)


@dataclass(frozen=True)
class SimConfig:
    prior: SpectralPrior
    spec: DegradationSpec
    schedule: Schedule
    guidance: Guidance
    n_runs: int = 1
    seed: int = 0

    def __post_init__(self):
        weights = self.guidance.weights
        if weights is not None and weights.steps != self.schedule.S:
            raise ValueError("guidance weights must match the schedule length")
        if self.n_runs < 1:
            raise ValueError("n_runs must be positive")
        _require_same_dim(self.prior, self.spec)
        _require_hermitian(self.spec.lambda_h, "lambda_h")
        _require_hermitian(self.prior.mu_f, "mu_f")
        _require_hermitian(self.prior.lambda0, "lambda0")


@dataclass(frozen=True)
class RunStats:
    """Empirical spectral moments of the sampler output.

    ``emp_var`` is the per-bin spectral power divided by d, i.e. in the same
    covariance-eigenvalue units as everything else in the package.
    ``per_step_zeta`` is the DPS heuristic's realized (S, n_runs) zeta, else None.
    """

    emp_mean: np.ndarray
    emp_var: np.ndarray
    per_step_zeta: np.ndarray | None = None


def heuristic_zeta(
    zeta_prime: float, norms: np.ndarray, cap: float, out: np.ndarray | None = None
) -> np.ndarray:
    """DPS heuristic weights zeta' / ||y - H x0hat||; cap where a norm is zero.

    Divides once, into out if given, and returns the weights; only where a
    norm is zero is the quotient replaced by cap.
    """
    norms = np.asarray(norms, dtype=float)
    if norms.all():
        return np.divide(zeta_prime, norms, out=out)
    with np.errstate(divide="ignore"):
        out = np.divide(zeta_prime, norms, out=out)
    out[norms == 0] = cap
    return out


def _parseval_weights(d: int) -> np.ndarray:
    """Weights of |R_k|^2 over the bins of a half spectrum, summing to ||r||^2.

    Bin k of the d // 2 + 1 stands for itself and its conjugate d - k, except
    DC and, for even d, Nyquist, which have none.
    """
    w = np.full(d // 2 + 1, 2.0 / d)
    w[0] = 1.0 / d
    if d % 2 == 0:
        w[-1] = 1.0 / d
    return w


def _aligned_empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialized C-ordered array whose data starts on a 64-byte boundary.

    The step loop's speed can depend on where its buffers start relative to
    a cache line; one fixed alignment makes it a property of the code, not of
    earlier heap allocations.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start : start + nbytes].view(dtype).reshape(shape)


def _support_end(table: np.ndarray) -> int:
    """One past the last bin (last axis) where any row of table is nonzero; 0 if none is."""
    live = np.flatnonzero(np.any(table.reshape(-1, table.shape[-1]) != 0, axis=0))
    return int(live[-1]) + 1 if live.size else 0


def _run_spectrum(
    cfg: SimConfig, obs: Observation, x_start: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Advance a (n, d) batch of starting states through steps s = S down to 1.

    Returns the final states' half spectrum, (d // 2 + 1, n) bins by
    trajectories, and for the DPS heuristic the (S, n) zeta each trajectory
    realized (None for the other kinds, whose weights are the schedule's).

    Each step scales all d // 2 + 1 bins by A and adds the offset B on
    [0, nb), nb one past the last bin where any step's B is nonzero.  Fixed
    weights w fold into these tables: the guidance w G (C - HJ X), with
    G = J^T H^T E, adds -w G HJ to A and w G C to B.  Only the heuristic,
    whose weight depends on each trajectory's residual, forms C - HJ X at
    every step, on bins [0, nh), nh one past the last bin where h is
    nonzero; past nh the residual is C whatever the state, so that part of
    its norm comes from a per-step table.  Its sums, norms, realized weights
    and interleaved 2 zeta pairs go to buffers made before the loop, not to
    new arrays at every step.

    The tables are built and the loop runs under an errstate that silences
    overflow and invalid values, the loop with a ufunc buffer no longer than
    a row of trajectories (both restored on exit), and one ``np.isfinite``
    check of the final states finds any divergence (the module docstring
    says why that is exact).  A diverged batch is replayed from a fresh real
    FFT of x_start with a check after every step, and raises ValueError
    naming the first non-finite step.
    """
    prior, spec, sched, guide = cfg.prior, cfg.spec, cfg.schedule, cfg.guidance
    d = prior.dim
    X = np.atleast_2d(np.asarray(x_start, dtype=float))
    n = X.shape[0]
    heuristic = guide.kind == GUIDANCE_DPS_HEURISTIC

    # Per-step multiplier tables in step order, row i for step i + 1.
    _require_hermitian(obs.y_f, "y_f")
    m = d // 2 + 1
    lam = prior.lambda0[:m]
    h = spec.lambda_h[:m]
    mu = prior.mu_f[:m]
    y = obs.y_f[:m]
    sig2 = spec.sigma_y**2
    a, b = (v[:, None] for v in step_coeffs_scalar(sched))
    ab = sched.alpha_bar[:, None]  # (S, 1), broadcast over the bins
    Xf = _aligned_empty((m, n), complex)
    Xv = Xf.view(np.float64)  # (m, 2n): the re and im parts of each trajectory

    with np.errstate(over="ignore", invalid="ignore"):
        if guide.kind == GUIDANCE_OPTIMAL:
            # MAP denoiser x0hat = K^-1 ((1 - ab) Sigma H^T y + sig2 sqrt(ab) Sigma x
            # + sig2 (1 - ab) mu) with K = (1 - ab) Sigma H^T H + sig2 (ab Sigma + (1 - ab) I).
            K = (1.0 - ab) * lam * np.abs(h) ** 2 + sig2 * ab * lam + sig2 * (1.0 - ab)
            if np.any(K == 0):
                raise ValueError("zero denominator bin")
            A = a + b * sig2 * np.sqrt(ab) * lam / K
            B = b * ((1.0 - ab) * lam * np.conj(h) * y + sig2 * (1.0 - ab) * mu) / K
        else:
            reg = ab * lam + (1.0 - ab)
            J = np.sqrt(ab) * lam / reg
            x0_offset = (1.0 - ab) * mu / reg
            C = y - h * x0_offset  # y - H x0hat = C - HJ x, x0hat = J x + offset
            A = a + b * J
            B = b * x0_offset
            if guide.kind == GUIDANCE_FIXED:
                weights = guide.weights
                if weights.kind == PIGDM:
                    cov = weights.r[:, None] ** 2 * np.abs(h) ** 2 + sig2
                    if np.any(cov == 0):  # r^2 H H^T + sig2 I, singular only without noise
                        raise ValueError("zero likelihood-covariance bin")
                    w, E = weights.g[:, None], 1.0 / cov
                else:
                    w, E = 2.0 * weights.zeta[:, None], 1.0
                # The guidance w G (C - HJ x), G = J^T H^T E = J conj(h) E as J is
                # real and symmetric, is affine in x: it folds into A and B.
                A = A - w * (E * J**2 * np.abs(h) ** 2)
                B = B + w * (E * J * np.conj(h) * C)
        # Each table gets a trailing axis that broadcasts over the trajectories.
        nb = _support_end(B)
        A, B = A[:, :, None], B[:, :nb, None]
        realized = np.empty((sched.S, n)) if heuristic else None  # each step fills its row
        if heuristic:
            nh = _support_end(h)
            # Parseval's share of the bins past nh, where the residual is C.
            parseval = _parseval_weights(d)
            tail = (C.real[:, nh:] ** 2 + C.imag[:, nh:] ** 2) @ parseval[nh:]
            parseval = parseval[:nh]
            C, HJ, G = C[:, :nh, None], (h * J)[:, :nh, None], (J * np.conj(h))[:, :nh, None]
            squares = _aligned_empty((nh, 2 * n), np.float64)
            R = _aligned_empty((nh, n), complex)
            Rv = R.view(np.float64)  # (nh, 2n), as Xv
            sums, norms, w_pairs = np.empty(2 * n), np.empty(n), np.empty(2 * n)

        def advance(check: bool) -> None:
            """Run every step from the starting states; with check, raise at the first non-finite one."""
            Xf[...] = np.fft.rfft(X, axis=-1).T
            for i in range(sched.S - 1, -1, -1):  # from step S down
                if heuristic:
                    np.multiply(HJ[i], Xf[:nh], out=R)
                    np.subtract(C[i], R, out=R)
                    np.square(Rv, out=squares)
                    np.matmul(parseval, squares, out=sums)
                    np.add(sums[0::2], sums[1::2], out=norms)
                    np.add(norms, tail[i], out=norms)
                    np.sqrt(norms, out=norms)
                    zeta = heuristic_zeta(guide.zeta_prime, norms, guide.cap, out=realized[i])
                    # 2 zeta once for the re and once for the im part of each trajectory.
                    np.multiply(zeta, 2.0, out=w_pairs[0::2])
                    np.multiply(zeta, 2.0, out=w_pairs[1::2])
                    np.multiply(R, G[i], out=R)
                    # Scale the real view: an overflow gives inf, never inf * 0 = nan.
                    np.multiply(Rv, w_pairs, out=Rv)
                np.multiply(Xv, A[i], out=Xv)  # A is real
                if nb:
                    Xf[:nb] += B[i]
                if heuristic:
                    Xf[:nh] += R
                if check and not np.isfinite(Xv).all():
                    raise ValueError(f"diverged at step {i + 1}")

        # Each per-bin multiplier broadcasts along a row of n trajectories.
        # When the ufunc buffer holds two rows or more, numpy 2.4 buffers such
        # an op to run several rows per inner loop, which made it 2-3 times
        # slower at n = 1000 and 2000.  A buffer of at most one row (numpy
        # wants a multiple of 16) runs them row by row.
        bufsize = np.setbufsize(min(np.getbufsize(), max(16, n - n % 16)))
        # One check of the final states; only a diverged batch replays to name its step.
        try:
            advance(check=False)
            if not np.isfinite(Xv).all():
                advance(check=True)
                raise AssertionError("the replay of a diverged batch stayed finite")
        finally:
            np.setbufsize(bufsize)
    return Xf, realized


def _start_states(cfg: SimConfig) -> np.ndarray:
    """The (n_runs, d) i.i.d. standard-normal starting states of cfg's seed."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    return rng.standard_normal((cfg.n_runs, cfg.prior.dim))


def _require_stat_runs(n_runs: int) -> None:
    """Output moments need two runs: one run has no spread to estimate."""
    if n_runs < 2:
        raise ValueError("n_runs must be at least 2")


def monte_carlo(cfg: SimConfig, obs: Observation) -> RunStats:
    """Empirical output moments over i.i.d. standard-normal starting states."""
    _require_stat_runs(cfg.n_runs)
    Xf, zeta = _run_spectrum(cfg, obs, _start_states(cfg))
    d = cfg.prior.dim
    # DC and, for even d, Nyquist are their own mirror: real, as irfft reads them.
    Xf.imag[[0, d // 2] if d % 2 == 0 else [0]] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        mean = Xf.mean(axis=1)
        var = np.mean(np.abs(Xf - mean[:, None]) ** 2, axis=1) / d
    if not np.isfinite(var).all():  # a non-finite mean makes its bin's var so too
        raise ValueError("output moments overflow: the final states are finite but too large")
    # Bin d - k of a real signal's spectrum is the conjugate of bin k.
    emp_mean, emp_var = (np.concatenate([v, v[(d - 1) // 2 : 0 : -1].conj()]) for v in (mean, var))
    return RunStats(emp_mean=emp_mean, emp_var=emp_var, per_step_zeta=zeta)


def heuristic_weight_profile(
    zeta_prime: float, cfg: SimConfig, obs: Observation
) -> np.ndarray:
    """Realized (S, n_runs) heuristic weights, as monte_carlo's per_step_zeta."""
    run_cfg = replace(cfg, guidance=Guidance.dps_heuristic(zeta_prime, cap=cfg.guidance.cap))
    return _run_spectrum(run_cfg, obs, _start_states(run_cfg))[1]
