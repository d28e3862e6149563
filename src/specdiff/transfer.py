"""Per-step multipliers and composed transfer functions of guided DDIM samplers.

Each sampler's spectral update has the per-frequency form
``x[s-1] = G(s) x[s] + Q(s) y + M(s) mu``; composing the S steps yields a
triple (D1, D2, D3) mapping the starting noise, the measurement, and the
prior mean straight to the output, whose distribution is then Gaussian with
mean D2 y + D3 mu and per-bin variance |D1|^2.

This module is the only place the step formulas live.  DPS and PiGDM share
one form.  With the unguided DDIM step G0 = a + b c, M0 = b dd (c and dd are
the prior denoiser's per-bin gains) and the guidance directions c^2 |h|^2,
c conj(h) and c |h|^2 dd, a guided step is

    G = G0 - (w c^2 |h|^2) e,   Q = (w c conj(h)) e,   M = M0 - (w c |h|^2 dd) e

with a per-step gain w and likelihood weight e.  DPS takes w = 2 zeta and no
likelihood weight; PiGDM takes w = g and e = 1 / (r^2 |h|^2 + sigma^2), the
inverse of its likelihood covariance r^2 H H^T + sigma^2 I.  The ideal
sampler drives the same DDIM step with the MAP denoiser: its (G, Q, M) are
one fixed multiplier set per step, with no guidance.  ``step_multipliers``
yields the multipliers of every step and ``batch_triples`` composes them for
a whole batch of weight vectors at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import Schedule, step_coeffs
from .spectral import DegradationSpec, DiagGaussian, Observation, SpectralPrior

__all__ = [
    "DPS",
    "PIGDM",
    "IDEAL",
    "WeightSchedule",
    "TransferTriple",
    "prior_optimal_denoise",
    "posterior_optimal_denoise",
    "step_multipliers",
    "batch_triples",
    "output_distribution",
    "transfer_triple",
    "ideal_triple",
    "pigdm_heuristic_weights",
]

DPS = "dps"
PIGDM = "pigdm"
IDEAL = "ideal"


@dataclass(frozen=True)
class WeightSchedule:
    """Per-step guidance weights: zeta for DPS, (g, r) for PiGDM."""

    kind: str
    zeta: np.ndarray | None = None
    g: np.ndarray | None = None
    r: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == DPS:
            if self.zeta is None:
                raise ValueError("DPS weights require zeta")
            object.__setattr__(self, "zeta", np.asarray(self.zeta, dtype=float))
        elif self.kind == PIGDM:
            if self.g is None or self.r is None:
                raise ValueError("PiGDM weights require g and r")
            g = np.asarray(self.g, dtype=float)
            r = np.asarray(self.r, dtype=float)
            if g.shape != r.shape:
                raise ValueError("g and r must have the same length")
            if np.any(r < 0):
                raise ValueError("r must be nonnegative")
            object.__setattr__(self, "g", g)
            object.__setattr__(self, "r", r)
        else:
            raise ValueError(f"unknown sampler kind: {self.kind}")

    @classmethod
    def dps(cls, zeta) -> "WeightSchedule":
        return cls(kind=DPS, zeta=zeta)

    @classmethod
    def pigdm(cls, g, r) -> "WeightSchedule":
        return cls(kind=PIGDM, g=g, r=r)

    @property
    def steps(self) -> int:
        return len(self.zeta) if self.kind == DPS else len(self.g)

    @property
    def theta(self) -> np.ndarray:
        """Packed weight vector: zeta for DPS, [g, r] for PiGDM."""
        if self.kind == DPS:
            return np.array(self.zeta, dtype=float)
        return np.concatenate([self.g, self.r])


@dataclass(frozen=True)
class TransferTriple:
    """Per-frequency multipliers of the fully composed sampler."""

    D1: np.ndarray
    D2: np.ndarray
    D3: np.ndarray


def prior_optimal_denoise(
    prior: SpectralPrior, x_t_f: np.ndarray, alpha_bar_t: float
) -> np.ndarray:
    """MMSE denoiser under the prior alone, applied per frequency.

    At alpha_bar = 1 the dead bins (lambda = 0) pass the input through,
    which is the correct noise-free limit.
    """
    if not 0.0 <= alpha_bar_t <= 1.0:
        raise ValueError("alpha_bar_t must lie in [0, 1]")
    lam = prior.lambda0
    den = alpha_bar_t * lam + (1.0 - alpha_bar_t)
    dead = den == 0
    safe = np.where(dead, 1.0, den)
    num = np.sqrt(alpha_bar_t) * lam * x_t_f + (1.0 - alpha_bar_t) * prior.mu_f
    return np.where(dead, x_t_f, num / safe)


def posterior_optimal_denoise(
    prior: SpectralPrior,
    spec: DegradationSpec,
    y_f: np.ndarray,
    x_t_f: np.ndarray,
    alpha_bar_t: float,
) -> np.ndarray:
    """MAP (= Wiener) denoiser given both the noisy state and the measurement."""
    if spec.sigma_y <= 0:
        raise ValueError("posterior denoiser requires sigma_y > 0")
    lam = prior.lambda0
    h = spec.lambda_h
    sig2 = spec.sigma_y**2
    ab = alpha_bar_t
    den = (1.0 - ab) * lam * np.abs(h) ** 2 + sig2 * ab * lam + sig2 * (1.0 - ab)
    if np.any(den == 0):
        raise ValueError("zero denominator bin")
    num = (
        (1.0 - ab) * lam * np.conj(h) * y_f
        + sig2 * np.sqrt(ab) * lam * x_t_f
        + sig2 * (1.0 - ab) * prior.mu_f
    )
    return num / den


def output_distribution(
    triple: TransferTriple, obs: Observation, prior: SpectralPrior
) -> DiagGaussian:
    """Gaussian law of the sampler output for a fixed measurement."""
    mean = triple.D2 * obs.y_f + triple.D3 * prior.mu_f
    var = np.abs(triple.D1) ** 2
    return DiagGaussian(mean=mean, var=var)


def _step_table(kind: str, prior: SpectralPrior, spec: DegradationSpec, sched: Schedule):
    """Per-step arrays, each (S, d), in sampling order s = S..1.

    The ideal sampler gets its multipliers (G, Q, M); the guided samplers get
    the unguided step (G0, M0) and the guidance directions (dG, dQ, dM).
    """
    coeffs = [step_coeffs(sched, s, prior) for s in range(sched.S, 0, -1)]
    a = np.array([k.a_s for k in coeffs])[:, None]
    b = np.array([k.b_s for k in coeffs])[:, None]
    habs2 = np.abs(spec.lambda_h) ** 2
    hbar = np.conj(spec.lambda_h)
    if kind == IDEAL:
        lam = prior.lambda0
        sig2 = spec.sigma_y**2
        ab = sched.alpha_bar[::-1, None]
        lam_sum = (1.0 - ab) * lam * habs2 + sig2 * ab * lam + sig2 * (1.0 - ab)
        if np.any(lam_sum == 0):
            raise ValueError("zero denominator bin")
        G = a + b * sig2 * np.sqrt(ab) * lam / lam_sum
        Q = b * (1.0 - ab) * lam * hbar / lam_sum
        M = b * sig2 * (1.0 - ab) / lam_sum
        return G, Q, M
    c = np.stack([k.c_s for k in coeffs])
    dd = np.stack([k.d_s for k in coeffs])
    return a + b * c, b * dd, c**2 * habs2, c * hbar, c * habs2 * dd


def step_multipliers(
    kind: str,
    thetas: np.ndarray,
    prior: SpectralPrior,
    spec: DegradationSpec,
    sched: Schedule,
):
    """Yield each step's (G, Q, M), in sampling order s = S..1.

    ``thetas`` is a (B, P) batch of packed weight vectors: zeta for DPS
    (P = S), [g, r] for PiGDM (P = 2S), no columns for the ideal sampler.
    The multipliers broadcast against (B, d).
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    S = sched.S
    widths = {DPS: S, PIGDM: 2 * S, IDEAL: 0}
    if kind not in widths:
        raise ValueError(f"unknown sampler kind: {kind}")
    if thetas.shape[1] != widths[kind]:
        raise ValueError("weight vector length must match the schedule")
    table = _step_table(kind, prior, spec, sched)
    if kind == IDEAL:
        yield from zip(*table)
        return
    G0, M0, dG, dQ, dM = table
    habs2 = np.abs(spec.lambda_h) ** 2
    sig2 = spec.sigma_y**2
    # Step j of the sampling order is s = S - j, whose weights sit in column
    # S - 1 - j (and, for PiGDM's r, S columns further on).
    for j, i in enumerate(range(S - 1, -1, -1)):
        if kind == DPS:
            w = 2.0 * thetas[:, i : i + 1]
            yield G0[j] - w * dG[j], w * dQ[j], M0[j] - w * dM[j]
            continue
        w, r = thetas[:, i : i + 1], thetas[:, S + i : S + i + 1]
        # r^2 |h|^2 + sigma^2 can only vanish without measurement noise.
        if sig2 == 0 and np.any(r**2 * habs2 == 0):
            raise ValueError("zero likelihood-covariance bin")
        e = 1.0 / (r**2 * habs2 + sig2)
        yield G0[j] - w * dG[j] * e, w * dQ[j] * e, M0[j] - w * dM[j] * e


def batch_triples(
    kind: str,
    thetas: np.ndarray,
    prior: SpectralPrior,
    spec: DegradationSpec,
    sched: Schedule,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composed (D1, D2, D3), each (B, d), for a (B, P) batch of weight vectors.

    The running state follows (p, q, m) <- (G p, G q + Q, G m + M) from
    (1, 0, 0) over the steps in sampling order, which reproduces the
    product-sum closed form because the per-bin factors commute.
    """
    B = len(np.atleast_2d(thetas))
    p = np.ones((B, prior.dim), dtype=complex)
    q = np.zeros((B, prior.dim), dtype=complex)
    m = np.zeros((B, prior.dim), dtype=complex)
    for G, Q, M in step_multipliers(kind, thetas, prior, spec, sched):
        p = G * p
        q = G * q + Q
        m = G * m + M
        # Release this step's (B, d) multipliers before the next step
        # allocates its own; the freed blocks are then reused while still
        # in cache, which is measurably faster at large batches.
        del G, Q, M
    return p, q, m


def transfer_triple(
    weights: WeightSchedule,
    prior: SpectralPrior,
    spec: DegradationSpec,
    sched: Schedule,
) -> TransferTriple:
    """Composed triple of a weighted sampler."""
    D1, D2, D3 = batch_triples(weights.kind, weights.theta, prior, spec, sched)
    return TransferTriple(D1[0], D2[0], D3[0])


def ideal_triple(
    prior: SpectralPrior, spec: DegradationSpec, sched: Schedule
) -> TransferTriple:
    """Composed triple of the MAP-denoiser sampler."""
    D1, D2, D3 = batch_triples(IDEAL, np.empty((1, 0)), prior, spec, sched)
    return TransferTriple(D1[0], D2[0], D3[0])


def pigdm_heuristic_weights(sched: Schedule) -> WeightSchedule:
    """The published PiGDM weighting: unit gain, r tied to the noise level."""
    return WeightSchedule.pigdm(
        g=np.ones(sched.S), r=np.sqrt(1.0 - sched.alpha_bar)
    )
