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
one fixed multiplier set per step, with no guidance.

A ``StepTable`` holds those per-step arrays for one (sampler, prior,
degradation, schedule), so a solve builds them once.  For one packed weight
vector it gives every step's (S, d) multipliers (``step_arrays``), composes
them into the triple (``compose``), and differentiates the composition in
reverse mode: the forward sweep keeps each step's state, and one backward
sweep over the suffix products of G turns the loss cotangents dL/d conj(D)
into dL/dtheta in O(S d).  The theta-derivatives follow from the step form:
a unit of w e moves (G, Q, M) by (-dG, dQ, -dM), DPS has w e = 2 zeta, and
PiGDM has d(w e)/dg = e and d(w e)/dr = -2 g r |h|^2 e^2.
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
    "StepTable",
    "prior_optimal_denoise",
    "posterior_optimal_denoise",
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


class StepTable:
    """One sampler's per-step arrays over a fixed prior, degradation and schedule.

    Building the table costs one ``step_coeffs`` call per step; every weight
    vector is then evaluated against it, so a solve builds one table.  The
    arrays are (S, d), in sampling order s = S..1: the ideal sampler keeps its
    multipliers (G, Q, M), the guided samplers the unguided step (G0, M0) and
    the guidance directions (dG, dQ, dM).
    """

    def __init__(self, kind: str, prior: SpectralPrior, spec: DegradationSpec, sched: Schedule):
        S = sched.S
        widths = {DPS: S, PIGDM: 2 * S, IDEAL: 0}
        if kind not in widths:
            raise ValueError(f"unknown sampler kind: {kind}")
        self.kind, self.S, self.dim, self.width = kind, S, prior.dim, widths[kind]
        self.habs2 = np.abs(spec.lambda_h) ** 2
        self.sig2 = spec.sigma_y**2
        coeffs = [step_coeffs(sched, s, prior) for s in range(S, 0, -1)]
        a = np.array([k.a_s for k in coeffs])[:, None]
        b = np.array([k.b_s for k in coeffs])[:, None]
        hbar = np.conj(spec.lambda_h)
        if kind == IDEAL:
            lam = prior.lambda0
            ab = sched.alpha_bar[::-1, None]
            lam_sum = (1.0 - ab) * lam * self.habs2 + self.sig2 * ab * lam + self.sig2 * (1.0 - ab)
            if np.any(lam_sum == 0):
                raise ValueError("zero denominator bin")
            self.G = a + b * self.sig2 * np.sqrt(ab) * lam / lam_sum
            self.Q = b * (1.0 - ab) * lam * hbar / lam_sum
            self.M = b * self.sig2 * (1.0 - ab) / lam_sum
            return
        c = np.stack([k.c_s for k in coeffs])
        dd = np.stack([k.d_s for k in coeffs])
        self.G0, self.M0 = a + b * c, b * dd
        self.dG, self.dQ, self.dM = c**2 * self.habs2, c * hbar, c * self.habs2 * dd

    def _gains(self, theta: np.ndarray):
        """Per-step gain w, (S, 1), and likelihood weight e, (S, d) or None.

        Step j of the sampling order is s = S - j, whose weights sit in entry
        S - 1 - j (and, for PiGDM's r, S entries further on).
        """
        S = self.S
        if self.kind == DPS:
            return 2.0 * theta[::-1, None], None
        w, r = theta[:S][::-1, None], theta[S:][::-1, None]
        # r^2 |h|^2 + sigma^2 can only vanish without measurement noise.
        if self.sig2 == 0 and np.any(r**2 * self.habs2 == 0):
            raise ValueError("zero likelihood-covariance bin")
        return w, 1.0 / (r**2 * self.habs2 + self.sig2)

    def _gain_gradient(self, theta: np.ndarray, U: np.ndarray) -> np.ndarray:
        """dL/dtheta, (P,), from U = dL/d(w e), (S, d)."""
        if self.kind == DPS:
            return (2.0 * U.sum(axis=1))[::-1]
        w, e = self._gains(theta)
        r = theta[self.S :][::-1, None]
        dg = np.sum(e * U, axis=1)
        # de/dr = -2 r |h|^2 e^2
        dr = np.sum(-2.0 * w * r * self.habs2 * e**2 * U, axis=1)
        return np.concatenate([dg[::-1], dr[::-1]])

    def step_arrays(self, theta):
        """Every step's (G, Q, M), each (S, d), in sampling order s = S..1.

        ``theta`` is one packed weight vector: zeta for DPS (S entries),
        [g, r] for PiGDM (2S), none for the ideal sampler.  A guided step is
        G0 - (w dG) e, (w dQ) e, M0 - (w dM) e; DPS has no e.
        """
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.width,):
            raise ValueError(
                f"weight vector shape {theta.shape} must match the schedule's ({self.width},)"
            )
        if self.kind == IDEAL:
            return self.G, self.Q, self.M
        w, e = self._gains(theta)
        wdG, wdQ, wdM = w * self.dG, w * self.dQ, w * self.dM
        if e is not None:
            wdG, wdQ, wdM = wdG * e, wdQ * e, wdM * e
        return self.G0 - wdG, wdQ, self.M0 - wdM

    def _forward(self, G, Q, M, states: list | None = None):
        p = np.ones(self.dim, dtype=complex)
        q = np.zeros_like(p)
        m = np.zeros_like(p)
        for j in range(self.S):
            if states is not None:
                states.append((p, q, m))
            Gj = G[j]
            p = Gj * p
            q = Gj * q + Q[j]
            m = Gj * m + M[j]
        return p, q, m

    def compose(self, theta):
        """Composed (D1, D2, D3), each (d,), of one packed weight vector.

        The running state follows (p, q, m) <- (G p, G q + Q, G m + M) from
        (1, 0, 0) over the steps in sampling order, which reproduces the
        product-sum closed form because the per-bin factors commute.
        """
        return self._forward(*self.step_arrays(theta))

    def compose_with_pullback(self, theta):
        """(D1, D2, D3) of one packed weight vector, each (d,), and its reverse sweep.

        The reverse sweep maps the cotangents c_k = dL/d conj(D_k) of a real
        loss L to dL/dtheta.  D_k depends on step j's multipliers only through
        suffix_j (G_j state_j + source_j), where state_j is the (p, q, m)
        before step j and suffix_j the product of the later G, so one backward
        cumulative product gives every step's sensitivity at O(S d) cost.
        """
        if self.kind == IDEAL:
            raise ValueError("the ideal sampler has no weights to differentiate")
        theta = np.asarray(theta, dtype=float)
        G, Q, M = self.step_arrays(theta)
        states = []
        triple = self._forward(G, Q, M, states)

        def pullback(c1, c2, c3) -> np.ndarray:
            p, q, m = (np.array(arrays) for arrays in zip(*states))
            suffix = np.ones_like(G)
            suffix[:-1] = np.cumprod(G[:0:-1], axis=0)[::-1]
            a1, a2, a3 = (suffix * np.conj(c) for c in (c1, c2, c3))
            # A unit of w e moves step j's multipliers by (-dG, dQ, -dM).
            U = 2.0 * np.real(a2 * self.dQ - (a1 * p + a2 * q + a3 * m) * self.dG - a3 * self.dM)
            return self._gain_gradient(theta, U)

        return triple, pullback


def batch_triples(
    kind: str,
    theta: np.ndarray,
    prior: SpectralPrior,
    spec: DegradationSpec,
    sched: Schedule,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composed (D1, D2, D3), each (d,), of one packed weight vector.

    It takes one vector, not a batch; the name stays until the benchmark
    hooks that wrap it move in a declared benchmark change.
    """
    return StepTable(kind, prior, spec, sched).compose(theta)


def transfer_triple(
    weights: WeightSchedule,
    prior: SpectralPrior,
    spec: DegradationSpec,
    sched: Schedule,
) -> TransferTriple:
    """Composed triple of a weighted sampler."""
    return TransferTriple(*batch_triples(weights.kind, weights.theta, prior, spec, sched))


def ideal_triple(
    prior: SpectralPrior, spec: DegradationSpec, sched: Schedule
) -> TransferTriple:
    """Composed triple of the MAP-denoiser sampler."""
    return TransferTriple(*batch_triples(IDEAL, np.empty(0), prior, spec, sched))


def pigdm_heuristic_weights(sched: Schedule) -> WeightSchedule:
    """The published PiGDM weighting: unit gain, r tied to the noise level."""
    return WeightSchedule.pigdm(
        g=np.ones(sched.S), r=np.sqrt(1.0 - sched.alpha_bar)
    )
