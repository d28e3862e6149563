"""Time-domain Monte-Carlo engine for guided DDIM sampling.

A batch enters and leaves as a real (n, d) array of time-domain states.  In
between it lives on the d // 2 + 1 bins of the half spectrum: one real FFT
of the starting states, every step as per-bin arithmetic, and one inverse
real FFT of the final states.  Every operator here (prior covariance,
degradation, their regularized inverses) is a real circulant matrix, so its
multiplier is Hermitian (bin d - k is the conjugate of bin k) and the half
spectrum holds all of it; a round trip to the time domain between steps
would change nothing but rounding.

The unguided DDIM step is a x + b x0hat with the prior denoiser
x0hat = J x + (1 - ab) (ab Sigma + (1 - ab) I)^-1 mu, where
J = sqrt(ab) Sigma (ab Sigma + (1 - ab) I)^-1 is its Jacobian; per bin that
is X <- A X + B.  A guided step adds w J^T H^T E (y - H x0hat): DPS takes
w = 2 zeta and E = I, PiGDM takes w = g and E = (r^2 H H^T + sigma^2 I)^-1.
The weights come from a ``WeightSchedule`` or, for the DPS heuristic, from
each trajectory's residual norm ||y - H x0hat|| (``heuristic_zeta``), which
Parseval gives from the half spectrum.  The MAP ("optimal") denoiser is
affine in the state as well, so its step is X <- A X + B too.  Before the
first step a batch tabulates these per-bin multipliers for every step it
runs, so the loop holds only the (n, d // 2 + 1) arithmetic.

This stays an independent check on ``transfer.py``.  Its tables are built
here from ``step_coeffs_scalar`` and the prior and degradation multipliers,
in the operator terms above; nothing is taken from the step tables or the
composition of ``transfer.py``.  Each trajectory carries its own state and
residual through every step, so the heuristic weights are the ones each
trajectory realizes, which no closed form gives.  The tests check the
half-spectrum steps against dense matrices applied in the time domain.

Keeping only the Hermitian half of a non-Hermitian matvec would silently give
trajectories that no longer match the composed triple, so ``SimConfig``
rejects such a prior or degradation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .schedule import Schedule, step_coeffs_scalar
from .spectral import DegradationSpec, Observation, SpectralPrior, _require_hermitian
from .transfer import PIGDM, WeightSchedule

__all__ = [
    "Guidance",
    "SimConfig",
    "RunStats",
    "simulate_one",
    "monte_carlo",
    "heuristic_weight_profile",
    "heuristic_zeta",
]

GUIDANCE_NONE = "none"
GUIDANCE_FIXED = "fixed"
GUIDANCE_DPS_HEURISTIC = "dps-heuristic"
GUIDANCE_OPTIMAL = "optimal"
_GUIDANCE_KINDS = (GUIDANCE_NONE, GUIDANCE_FIXED, GUIDANCE_DPS_HEURISTIC, GUIDANCE_OPTIMAL)

DEFAULT_ZETA_CAP = 5.0


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
            if self.zeta_prime <= 0:
                raise ValueError("zeta_prime must be positive")

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
        _require_hermitian(self.spec.lambda_h, "lambda_h")
        _require_hermitian(self.prior.mu_f, "mu_f")
        _require_hermitian(self.prior.lambda0, "lambda0")


@dataclass(frozen=True)
class RunStats:
    """Empirical spectral moments of the sampler output.

    ``emp_var`` is the per-bin spectral power divided by d, i.e. in the same
    covariance-eigenvalue units as everything else in the package.
    """

    emp_mean: np.ndarray
    emp_var: np.ndarray
    n_runs: int
    per_step_zeta: np.ndarray | None = None


def heuristic_zeta(zeta_prime: float, norms: np.ndarray, cap: float) -> np.ndarray:
    """DPS heuristic weights zeta' / ||y - H x0hat||; cap where a norm is zero."""
    norms = np.asarray(norms, dtype=float)
    return np.where(norms == 0, cap, zeta_prime / np.where(norms == 0, 1.0, norms))


def _parseval_weights(d: int) -> np.ndarray:
    """Weights of |R_k|^2 over the re/im pairs of a half spectrum, summing to ||r||^2.

    Bin k of the d // 2 + 1 stands for itself and its conjugate d - k, except
    DC and, for even d, Nyquist, which have none.
    """
    w = np.full(d // 2 + 1, 2.0 / d)
    w[0] = 1.0 / d
    if d % 2 == 0:
        w[-1] = 1.0 / d
    return np.repeat(w, 2)


def _run_batch(
    cfg: SimConfig, obs: Observation, x_start: np.ndarray, stop_at_s: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Advance a (n, d) batch of starting states through the sampler.

    Runs steps s = S down to stop_at_s + 1 (the full trajectory by default).
    Returns the resulting states and the realized per-step weights (S, n):
    zeta for DPS, g for PiGDM, zero without guidance or for steps not run.
    Only the DPS heuristic realizes weights that differ between runs; for the
    other kinds the weights are a read-only broadcast of one column.
    """
    prior, spec, sched, guide = cfg.prior, cfg.spec, cfg.schedule, cfg.guidance
    d = prior.dim
    X = np.atleast_2d(np.asarray(x_start, dtype=float))
    weights = guide.weights
    pigdm = weights is not None and weights.kind == PIGDM
    heuristic = guide.kind == GUIDANCE_DPS_HEURISTIC
    guided = heuristic or guide.kind == GUIDANCE_FIXED
    column = np.zeros(sched.S)
    if weights is not None:
        column[stop_at_s:] = (weights.g if pigdm else weights.zeta)[stop_at_s:]
    if heuristic:
        realized = np.zeros((sched.S, X.shape[0]))
        parseval = _parseval_weights(d)
    else:
        realized = np.broadcast_to(column[:, None], (sched.S, X.shape[0]))
    if stop_at_s == sched.S:
        return X, realized

    # Per-step multiplier tables, one row per step in run order s = S, S-1, ...
    _require_hermitian(obs.y_f, "y_f")
    m = d // 2 + 1
    lam = prior.lambda0[:m]
    h = spec.lambda_h[:m]
    mu = prior.mu_f[:m]
    y = obs.y_f[:m]
    sig2 = spec.sigma_y**2
    steps = np.arange(sched.S, stop_at_s, -1)
    a, b = np.array([step_coeffs_scalar(sched, s) for s in steps]).T[:, :, None]
    ab = sched.alpha_bar[steps - 1][:, None]  # (steps, 1), broadcast over the bins
    if guide.kind == GUIDANCE_OPTIMAL:
        # MAP denoiser x0hat = K^-1 ((1 - ab) Sigma H^T y + sig2 sqrt(ab) Sigma x
        # + sig2 (1 - ab) mu) with K = (1 - ab) Sigma H^T H + sig2 (ab Sigma + (1 - ab) I).
        K = (1.0 - ab) * lam * np.abs(h) ** 2 + sig2 * ab * lam + sig2 * (1.0 - ab)
        A = a + b * sig2 * np.sqrt(ab) * lam / K
        B = b * ((1.0 - ab) * lam * np.conj(h) * y + sig2 * (1.0 - ab) * mu) / K
    else:
        reg = ab * lam + (1.0 - ab)
        J = np.sqrt(ab) * lam / reg
        x0_offset = (1.0 - ab) * mu / reg
        A = a + b * J
        B = b * x0_offset
    if guided:
        C = y - h * x0_offset  # y - H x0hat = C - HJ x, x0hat = J x + offset
        HJ = h * J
        E = 1.0 / (weights.r[steps - 1][:, None] ** 2 * np.abs(h) ** 2 + sig2) if pigdm else 1.0
        G = J * np.conj(h) * E  # J^T H^T E; J is real and symmetric
        w_fixed = column[steps - 1] if pigdm else 2.0 * column[steps - 1]
        R = np.empty((X.shape[0], m), dtype=complex)
        Rv = R.view(np.float64)

    Xf = np.fft.rfft(X, axis=-1)
    for i, s in enumerate(steps):
        if guided:
            np.multiply(HJ[i], Xf, out=R)
            np.subtract(C[i], R, out=R)
            if heuristic:
                norms = np.sqrt((Rv * Rv) @ parseval)
                realized[s - 1] = heuristic_zeta(guide.zeta_prime, norms, guide.cap)
                w = 2.0 * realized[s - 1][:, None]
            else:
                w = w_fixed[i]
            R *= G[i]
            # Scale the real view: an overflow gives inf, never inf * 0 = nan.
            Rv *= w
        Xf *= A[i]
        Xf += B[i]
        if guided:
            Xf += R
        if not np.isfinite(Xf.view(np.float64)).all():
            raise ValueError(f"diverged at step {s}")
    return np.fft.irfft(Xf, n=d, axis=-1), realized


def simulate_one(
    cfg: SimConfig, obs: Observation, x_start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run one deterministic trajectory from a given starting state."""
    x_start = np.asarray(x_start, dtype=float)
    if x_start.shape != (cfg.prior.dim,):
        raise ValueError("starting state length mismatch")
    X, realized = _run_batch(cfg, obs, x_start[None, :])
    return X[0], realized[:, 0]


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
    X0, realized = _run_batch(cfg, obs, _start_states(cfg))
    spectra = np.fft.fft(X0, axis=-1)
    emp_mean = spectra.mean(axis=0)
    emp_var = np.mean(np.abs(spectra - emp_mean) ** 2, axis=0) / cfg.prior.dim
    zeta = realized if cfg.guidance.kind == GUIDANCE_DPS_HEURISTIC else None
    return RunStats(
        emp_mean=emp_mean, emp_var=emp_var, n_runs=cfg.n_runs, per_step_zeta=zeta
    )


def heuristic_weight_profile(
    zeta_prime: float, cfg: SimConfig, obs: Observation
) -> np.ndarray:
    """Realized (S, n_runs) heuristic weights, as monte_carlo's per_step_zeta."""
    run_cfg = replace(cfg, guidance=Guidance.dps_heuristic(zeta_prime, cap=cfg.guidance.cap))
    return _run_batch(run_cfg, obs, _start_states(run_cfg))[1]
