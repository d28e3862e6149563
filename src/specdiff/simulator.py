"""Time-domain Monte-Carlo engine for guided DDIM sampling.

The state is kept as real time-domain vectors and every operator (prior
covariance, degradation, their regularized inverses) is applied as a
circulant matrix-vector product through the FFT.  This mirrors the sampler
updates as written in the time domain and serves as an independent check on
the composed spectral transfer functions.

A guided step adds w J^T H^T E (y - H x0hat) to the unguided DDIM step
a x + b x0hat, where J = sqrt(ab) Sigma (ab Sigma + (1 - ab) I)^-1 is the
Jacobian of the prior denoiser x0hat.  DPS takes w = 2 zeta and E = I;
PiGDM takes w = g and E = (r^2 H H^T + sigma^2 I)^-1.  This is the (w, e)
form that ``transfer.py`` composes per bin, applied here as FFT matvecs on
the state; the weights come from a ``WeightSchedule`` or, for the DPS
heuristic, from each step's residual norm (``heuristic_zeta``).

A real state admits only real circulant operators, whose multipliers are
Hermitian (bin d - k is the conjugate of bin k).  Keeping the real part of
a non-Hermitian matvec would silently give trajectories that no longer
match the composed triple, so ``SimConfig`` rejects such a prior or
degradation.
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

DEFAULT_ZETA_CAP = 5.0


@dataclass(frozen=True)
class Guidance:
    """Guidance rule used inside the sampler loop."""

    kind: str
    weights: WeightSchedule | None = None
    zeta_prime: float | None = None
    cap: float = DEFAULT_ZETA_CAP

    @classmethod
    def none(cls) -> "Guidance":
        return cls(kind=GUIDANCE_NONE)

    @classmethod
    def fixed(cls, weights: WeightSchedule) -> "Guidance":
        return cls(kind=GUIDANCE_FIXED, weights=weights)

    @classmethod
    def dps_heuristic(cls, zeta_prime: float, cap: float = DEFAULT_ZETA_CAP) -> "Guidance":
        if zeta_prime <= 0:
            raise ValueError("zeta_prime must be positive")
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


def _apply(mult: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Circulant matvec: rows of X filtered by the spectral multiplier."""
    return np.fft.ifft(mult * np.fft.fft(X, axis=-1), axis=-1).real


def heuristic_zeta(zeta_prime: float, norms: np.ndarray, cap: float) -> np.ndarray:
    """DPS heuristic weights zeta' / ||y - H x0hat||; cap where a norm is zero."""
    norms = np.asarray(norms, dtype=float)
    return np.where(norms == 0, cap, zeta_prime / np.where(norms == 0, 1.0, norms))


def _run_batch(
    cfg: SimConfig, obs: Observation, x_start: np.ndarray, stop_at_s: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Advance a (n, d) batch of starting states through the sampler.

    Runs steps s = S down to stop_at_s + 1 (the full trajectory by default).
    Returns the resulting states and the realized per-step weights (S, n):
    zeta for DPS, g for PiGDM, zero without guidance.
    """
    prior, spec, sched, guide = cfg.prior, cfg.spec, cfg.schedule, cfg.guidance
    lam = prior.lambda0
    h = spec.lambda_h
    hbar = np.conj(h)
    habs2 = np.abs(h) ** 2
    sig2 = spec.sigma_y**2
    mu0 = prior.mu_time()
    y_time = obs.y_time()
    X = np.atleast_2d(np.asarray(x_start, dtype=float)).copy()
    realized = np.zeros((sched.S, X.shape[0]))
    weights = guide.weights
    pigdm = weights is not None and weights.kind == PIGDM
    column = None if weights is None else (weights.g if pigdm else weights.zeta)

    for s in range(sched.S, stop_at_s, -1):
        ab = sched.at(s)
        a, b = step_coeffs_scalar(sched, s)
        inv_reg = 1.0 / (ab * lam + (1.0 - ab))

        if guide.kind == GUIDANCE_OPTIMAL:
            lam_sum = (1.0 - ab) * lam * habs2 + sig2 * ab * lam + sig2 * (1.0 - ab)
            rhs = (
                (1.0 - ab) * _apply(lam, _apply(hbar, y_time))
                + sig2 * np.sqrt(ab) * _apply(lam, X)
                + sig2 * (1.0 - ab) * mu0
            )
            X = a * X + b * _apply(1.0 / lam_sum, rhs)
        else:
            x0hat = _apply(inv_reg, np.sqrt(ab) * _apply(lam, X) + (1.0 - ab) * mu0)
            X = a * X + b * x0hat
            if guide.kind != GUIDANCE_NONE:
                resid = y_time - _apply(h, x0hat)
                if guide.kind == GUIDANCE_DPS_HEURISTIC:
                    norms = np.linalg.norm(resid, axis=-1)
                    realized[s - 1] = heuristic_zeta(guide.zeta_prime, norms, guide.cap)
                else:
                    realized[s - 1] = column[s - 1]
                if pigdm:
                    resid = _apply(1.0 / (weights.r[s - 1] ** 2 * habs2 + sig2), resid)
                    w = realized[s - 1]
                else:
                    w = 2.0 * realized[s - 1]
                X = X + w[:, None] * _apply(inv_reg, np.sqrt(ab) * _apply(lam, _apply(hbar, resid)))
        if not np.all(np.isfinite(X)):
            raise ValueError(f"diverged at step {s}")
    return X, realized


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


def monte_carlo(cfg: SimConfig, obs: Observation) -> RunStats:
    """Empirical output moments over i.i.d. standard-normal starting states."""
    if cfg.n_runs < 2:
        raise ValueError("n_runs must be at least 2")
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
