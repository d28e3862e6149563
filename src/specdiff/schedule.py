"""DDPM noise schedules, DDIM subsequences, and per-step coefficient tables.

Every per-step table in the package is in step order s = 1..S, the order
of ``alpha_bar``; sampling walks it backwards from s = S.  Each coefficient
function returns a whole schedule's table: its formulas are elementwise, so
a row has the bits of the same formula applied to that step alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SpectralPrior, _vector

__all__ = [
    "Schedule",
    "linear_ddpm_schedule",
    "ddim_subsequence",
    "step_coeffs_scalar",
    "denoiser_coeffs",
    "step_coeffs",
]

BETA_START = 1e-4
BETA_END = 0.02


@dataclass(frozen=True)
class Schedule:
    """Cumulative noise levels of a DDIM step subsequence.

    ``alpha_bar[s-1]`` is the level at sampling step s; sampling runs from
    s = S (noisiest) down to s = 1, and the array is strictly decreasing in
    (0, 1), since a step at level 1 would have no noise to remove.  The level
    "before" step 1 is 1, so the final update outputs the denoised estimate.
    ``full`` is the table the steps, and any ladder rungs, are cut from: a
    directly built schedule is its own.  Both are read-only copies.
    """

    alpha_bar: np.ndarray
    full: np.ndarray | None = None

    def __post_init__(self):
        ab = _vector(self.alpha_bar, float, "alpha_bar")
        full = ab if self.full is None else _vector(self.full, float, "full")
        object.__setattr__(self, "alpha_bar", ab)
        object.__setattr__(self, "full", full)
        if not np.all((ab > 0) & (ab < 1)):
            raise ValueError("alpha_bar values must lie in (0, 1)")
        if np.any(np.diff(ab) >= 0):
            raise ValueError("alpha_bar must be strictly decreasing in s")

    @property
    def S(self) -> int:
        return len(self.alpha_bar)


def linear_ddpm_schedule(T: int) -> np.ndarray:
    """Full-length cumulative products of the standard linear beta schedule."""
    if T < 1:
        raise ValueError("T must be positive")
    betas = np.linspace(BETA_START, BETA_END, T)
    return np.cumprod(1.0 - betas)


def ddim_subsequence(full: np.ndarray, S: int) -> Schedule:
    """DDIM's uniform stride: indices floor(k T / S + 1/2), k = 1..S, step by T / S >= 1 and end at T."""
    full = np.asarray(full, dtype=float)
    T = len(full)
    if not 1 <= S <= T:
        raise ValueError(f"S must lie in 1..{T}")
    idx = np.floor(np.arange(1, S + 1) * (T / S) + 0.5).astype(int)
    return Schedule(alpha_bar=full[idx - 1], full=full)


def step_coeffs_scalar(sched: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """DDIM update scalars (a, b) of every step, each (S,) in step order."""
    ab = sched.alpha_bar
    ab_prev = np.concatenate(([1.0], ab[:-1]))
    a = np.sqrt((1.0 - ab_prev) / (1.0 - ab))
    b = np.sqrt(ab_prev) - np.sqrt(ab) * a
    return a, b


def denoiser_coeffs(sched: Schedule, prior: SpectralPrior) -> tuple[np.ndarray, np.ndarray]:
    """Per-frequency denoiser gains (c, d) of every step, each (S, d) in step order."""
    ab = sched.alpha_bar[:, None]
    lam = prior.lambda0
    den = ab * lam + (1.0 - ab)
    c = np.sqrt(ab) * lam / den
    d = (1.0 - ab) / den
    return c, d


def step_coeffs(sched: Schedule, prior: SpectralPrior) -> tuple[np.ndarray, ...]:
    """All coefficients the steps' transfer functions consume: (a, b, c, d) in step order.

    a and b are (S, 1) columns that broadcast over the bins of the (S, d) c and d.
    """
    a, b = step_coeffs_scalar(sched)
    return (a[:, None], b[:, None], *denoiser_coeffs(sched, prior))
