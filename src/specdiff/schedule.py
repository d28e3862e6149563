"""DDPM noise schedules, DDIM subsequences, and per-step coefficients.

The coefficient functions take one step or an array of steps.  A step table
and a Monte-Carlo batch each pass every step they run in one call; the
formulas are elementwise, so a row of the array result has the bits of the
single-step call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SpectralPrior

__all__ = [
    "Schedule",
    "StepCoeffs",
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
    s = S (noisiest) down to s = 1, and the array is strictly decreasing so
    the cleanest step sits first.  The level "before" step 1 is defined as 1,
    which makes the final update output the denoised estimate.
    """

    alpha_bar: np.ndarray
    T_full: int

    def __post_init__(self):
        ab = np.asarray(self.alpha_bar, dtype=float)
        ab.setflags(write=False)
        object.__setattr__(self, "alpha_bar", ab)
        if ab.ndim != 1 or len(ab) < 1:
            raise ValueError("alpha_bar must be a nonempty vector")
        if np.any(ab <= 0) or np.any(ab > 1):
            raise ValueError("alpha_bar values must lie in (0, 1]")
        if np.any(np.diff(ab) >= 0):
            raise ValueError("alpha_bar must be strictly decreasing in s")

    @property
    def S(self) -> int:
        return len(self.alpha_bar)

    def at(self, s):
        """Noise level at step s: a float, or an array for an integer array of steps."""
        return self._level(s, self.alpha_bar)

    def before(self, s):
        """Noise level of the step that follows s in sampling order, as ``at``."""
        return self._level(s, np.concatenate(([1.0], self.alpha_bar[:-1])))

    def _level(self, s, levels: np.ndarray):
        """levels[s - 1] for a step or an array of steps, range-checked."""
        idx = np.asarray(s)
        if np.any((idx < 1) | (idx > self.S)):
            raise ValueError(f"step index {s} out of range 1..{self.S}")
        return float(levels[idx - 1]) if idx.ndim == 0 else levels[idx - 1]


@dataclass(frozen=True)
class StepCoeffs:
    """DDIM update scalars and per-frequency denoiser gains.

    For one step, a_s and b_s are floats and c_s and d_s (d,) arrays; for an
    array of n steps they are (n,) and (n, d) arrays, one row per step.
    """

    a_s: float | np.ndarray
    b_s: float | np.ndarray
    c_s: np.ndarray
    d_s: np.ndarray


def linear_ddpm_schedule(T: int) -> np.ndarray:
    """Full-length cumulative products of the standard linear beta schedule."""
    if T < 1:
        raise ValueError("T must be positive")
    betas = np.linspace(BETA_START, BETA_END, T)
    return np.cumprod(1.0 - betas)


def ddim_subsequence(full: np.ndarray, S: int) -> Schedule:
    """Uniform-stride subsequence of a full schedule, always ending at T."""
    full = np.asarray(full, dtype=float)
    T = len(full)
    if not 1 <= S <= T:
        raise ValueError(f"S must lie in 1..{T}")
    idx = np.clip(np.floor(np.arange(1, S + 1) * (T / S) + 0.5).astype(int), 1, T)
    # The indices never decrease: keep the first of each run of equal ones.
    # (np.unique would do the same, but it imports numpy.ma.)
    idx = idx[np.concatenate(([True], idx[1:] != idx[:-1]))]
    return Schedule(alpha_bar=full[idx - 1], T_full=T)


def step_coeffs_scalar(sched: Schedule, s):
    """DDIM update scalars (a_s, b_s) at step s, or elementwise over an array of steps.

    One step gives two floats, an array of steps two arrays of its shape.  The
    arithmetic is the same elementwise either way, so the bits agree.
    """
    ab_s = sched.at(s)
    ab_prev = sched.before(s)
    if np.any(ab_s >= 1.0):
        raise ValueError("division by zero noise")
    a = np.sqrt((1.0 - ab_prev) / (1.0 - ab_s))
    b = np.sqrt(ab_prev) - np.sqrt(ab_s) * a
    return (float(a), float(b)) if np.ndim(s) == 0 else (a, b)


def denoiser_coeffs(sched: Schedule, s, prior: SpectralPrior) -> tuple[np.ndarray, np.ndarray]:
    """Per-frequency denoiser gains (c_s, d_s) at step s: (d,), or (n, d) for n steps."""
    ab = sched.at(s)
    if np.ndim(ab):
        ab = ab[:, None]
    lam = prior.lambda0
    den = ab * lam + (1.0 - ab)
    if np.any(den == 0):
        raise ValueError("denoiser undefined where alpha_bar = 1 and lambda = 0")
    c = np.sqrt(ab) * lam / den
    d = (1.0 - ab) / den
    return c, d


def step_coeffs(sched: Schedule, s, prior: SpectralPrior) -> StepCoeffs:
    """All coefficients a step's transfer functions consume.

    ``s`` is one step or a 1-D array of steps; a step table passes all of its
    steps in sampling order, so one call builds every row.
    """
    a, b = step_coeffs_scalar(sched, s)
    c, d = denoiser_coeffs(sched, s, prior)
    return StepCoeffs(a_s=a, b_s=b, c_s=c, d_s=d)
