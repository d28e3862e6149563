"""Time-domain Monte-Carlo engine for guided DDIM sampling.

The state is kept as real time-domain vectors and every operator (prior
covariance, degradation, their regularized inverses) is applied as a
circulant matrix-vector product through the FFT.  This mirrors the sampler
updates as written in the time domain and serves as an independent check on
the composed spectral transfer functions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .schedule import Schedule, step_coeffs_scalar
from .spectral import DegradationSpec, Observation, SpectralPrior

__all__ = [
    "Guidance",
    "SimConfig",
    "RunStats",
    "HeuristicProfile",
    "simulate_one",
    "monte_carlo",
    "heuristic_weight_profile",
    "replay_realized_weights",
]

GUIDANCE_NONE = "none"
GUIDANCE_DPS_FIXED = "dps-fixed"
GUIDANCE_DPS_HEURISTIC = "dps-heuristic"
GUIDANCE_PIGDM = "pigdm"
GUIDANCE_OPTIMAL = "optimal"

DEFAULT_ZETA_CAP = 5.0


@dataclass(frozen=True)
class Guidance:
    """Guidance rule used inside the sampler loop."""

    kind: str
    zeta: np.ndarray | None = None
    zeta_prime: float | None = None
    g: np.ndarray | None = None
    r: np.ndarray | None = None
    cap: float = DEFAULT_ZETA_CAP

    @classmethod
    def none(cls) -> "Guidance":
        return cls(kind=GUIDANCE_NONE)

    @classmethod
    def dps_fixed(cls, zeta) -> "Guidance":
        return cls(kind=GUIDANCE_DPS_FIXED, zeta=np.asarray(zeta, dtype=float))

    @classmethod
    def dps_heuristic(cls, zeta_prime: float, cap: float = DEFAULT_ZETA_CAP) -> "Guidance":
        if zeta_prime < 0:
            raise ValueError("zeta_prime must be nonnegative")
        return cls(kind=GUIDANCE_DPS_HEURISTIC, zeta_prime=float(zeta_prime), cap=cap)

    @classmethod
    def pigdm(cls, g, r) -> "Guidance":
        return cls(
            kind=GUIDANCE_PIGDM,
            g=np.asarray(g, dtype=float),
            r=np.asarray(r, dtype=float),
        )

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
        for vec in (self.guidance.zeta, self.guidance.g, self.guidance.r):
            if vec is not None and len(vec) != self.schedule.S:
                raise ValueError("guidance vectors must match the schedule length")
        if self.n_runs < 1:
            raise ValueError("n_runs must be positive")


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


@dataclass(frozen=True)
class HeuristicProfile:
    """Per-step statistics of the realized heuristic weights."""

    mean: np.ndarray
    std: np.ndarray
    zetas: np.ndarray
    resid_norms: np.ndarray


def _apply(mult: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Circulant matvec: rows of X filtered by the spectral multiplier."""
    return np.fft.ifft(mult * np.fft.fft(X, axis=-1), axis=-1).real


def _run_batch(
    cfg: SimConfig, obs: Observation, x_start: np.ndarray, stop_at_s: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance a (n, d) batch of starting states through the sampler.

    Runs steps s = S down to stop_at_s + 1 (the full trajectory by default).
    Returns the resulting states, the realized per-step scalar weights
    (S, n), and the per-step residual norms (S, n) where guidance uses them.
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
    n = X.shape[0]
    S = sched.S
    realized = np.zeros((S, n))
    resid_norms = np.zeros((S, n))

    for s in range(S, stop_at_s, -1):
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
            x0hat = _apply(1.0 / lam_sum, rhs)
            X = a * X + b * x0hat
        else:
            x0hat = _apply(inv_reg, np.sqrt(ab) * _apply(lam, X) + (1.0 - ab) * mu0)
            if guide.kind == GUIDANCE_NONE:
                X = a * X + b * x0hat
            else:
                resid = y_time - _apply(h, x0hat)
                norms = np.linalg.norm(resid, axis=-1)
                resid_norms[s - 1] = norms
                if guide.kind == GUIDANCE_DPS_FIXED:
                    zeta = np.full(n, guide.zeta[s - 1])
                elif guide.kind == GUIDANCE_DPS_HEURISTIC:
                    zeta = np.where(norms == 0, guide.cap, guide.zeta_prime / np.where(norms == 0, 1.0, norms))
                elif guide.kind == GUIDANCE_PIGDM:
                    zeta = np.full(n, guide.g[s - 1])
                else:
                    raise ValueError(f"unknown guidance kind: {guide.kind}")
                realized[s - 1] = zeta
                if guide.kind == GUIDANCE_PIGDM:
                    r_s = guide.r[s - 1]
                    t = _apply(1.0 / (r_s**2 * habs2 + sig2), resid)
                    t = _apply(hbar, t)
                    gradient_step = zeta[:, None] * _apply(
                        inv_reg, np.sqrt(ab) * _apply(lam, t)
                    )
                else:
                    t = _apply(hbar, resid)
                    gradient_step = 2.0 * zeta[:, None] * _apply(
                        inv_reg, np.sqrt(ab) * _apply(lam, t)
                    )
                X = a * X + b * x0hat + gradient_step
        if not np.all(np.isfinite(X)):
            raise ValueError(f"diverged at step {s}")
    return X, realized, resid_norms


def simulate_one(
    cfg: SimConfig, obs: Observation, x_start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run one deterministic trajectory from a given starting state."""
    x_start = np.asarray(x_start, dtype=float)
    if x_start.shape != (cfg.prior.dim,):
        raise ValueError("starting state length mismatch")
    X, realized, _ = _run_batch(cfg, obs, x_start[None, :])
    return X[0], realized[:, 0]


def _start_states(cfg: SimConfig) -> np.ndarray:
    """The (n_runs, d) i.i.d. standard-normal starting states of cfg's seed."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    return rng.standard_normal((cfg.n_runs, cfg.prior.dim))


def monte_carlo(cfg: SimConfig, obs: Observation) -> RunStats:
    """Empirical output moments over i.i.d. standard-normal starting states."""
    if cfg.n_runs < 2:
        raise ValueError("n_runs must be at least 2")
    X0, realized, _ = _run_batch(cfg, obs, _start_states(cfg))
    spectra = np.fft.fft(X0, axis=-1)
    emp_mean = spectra.mean(axis=0)
    emp_var = np.mean(np.abs(spectra - emp_mean) ** 2, axis=0) / cfg.prior.dim
    zeta = realized if cfg.guidance.kind == GUIDANCE_DPS_HEURISTIC else None
    return RunStats(
        emp_mean=emp_mean, emp_var=emp_var, n_runs=cfg.n_runs, per_step_zeta=zeta
    )


def heuristic_weight_profile(
    zeta_prime: float, cfg: SimConfig, obs: Observation
) -> HeuristicProfile:
    """Realized DPS weights zeta' / ||y - H x0hat|| recorded at every step."""
    if zeta_prime <= 0:
        raise ValueError("zeta_prime must be positive")
    run_cfg = replace(cfg, guidance=Guidance.dps_heuristic(zeta_prime, cap=cfg.guidance.cap))
    _, realized, norms = _run_batch(run_cfg, obs, _start_states(run_cfg))
    return HeuristicProfile(
        mean=realized.mean(axis=1),
        std=realized.std(axis=1),
        zetas=realized,
        resid_norms=norms,
    )


def replay_realized_weights(
    zeta_prime: float, resid_norms: np.ndarray, cap: float = DEFAULT_ZETA_CAP
) -> np.ndarray:
    """Heuristic weights recomputed on frozen residual norms (exact replay)."""
    norms = np.asarray(resid_norms, dtype=float)
    return np.where(norms == 0, cap, zeta_prime / np.where(norms == 0, 1.0, norms))
