"""Wasserstein-2 losses between reconstructed and true posteriors.

The squared distance splits into a variance term over |D1| and a mean term
over the Wiener-filtered measurement.  Everything here is expressed per
frequency bin, in the package's DFT units (means in forward-transform units,
variances as covariance eigenvalues), so the measurement-power term of the
analytic average carries the factor d that relates the two.  ``triples_loss``
holds the one formula; ``batch_loss`` feeds it composed triples, and
``weights_loss`` and ``triple_realization_loss`` are one-row calls of those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The step table in transfer.py takes every coefficient from step_coeffs, so
# these two are no longer called here; perfbench/hooks.py still wraps them
# under this module's name.
from .schedule import Schedule, denoiser_coeffs, step_coeffs_scalar  # noqa: F401
from .spectral import DegradationSpec, DiagGaussian, Observation, SpectralPrior
from .transfer import DPS, PIGDM, TransferTriple, WeightSchedule, batch_triples

__all__ = [
    "LossContext",
    "w2_diag",
    "wiener_gain",
    "triples_loss",
    "batch_loss",
    "weights_loss",
    "triple_realization_loss",
]


@dataclass(frozen=True)
class LossContext:
    """Everything a weight-schedule loss evaluation needs.

    ``observations=None`` selects the closed-form average over measurements;
    otherwise the loss averages over the given realizations (K = 1 recovers
    the single-realization distance).  The variance term is anchored at the
    true-posterior spectrum.
    """

    prior: SpectralPrior
    spec: DegradationSpec
    schedule: Schedule
    sampler_kind: str = DPS
    observations: tuple[Observation, ...] | None = None

    def __post_init__(self):
        if self.sampler_kind not in (DPS, PIGDM):
            raise ValueError(f"unknown sampler kind: {self.sampler_kind}")
        if self.observations is not None:
            obs = tuple(self.observations)
            if len(obs) < 1:
                raise ValueError("need at least one observation")
            object.__setattr__(self, "observations", obs)


def w2_diag(p: DiagGaussian, q: DiagGaussian) -> float:
    """Wasserstein-2 distance between two commuting-diagonal Gaussians."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    mean_term = np.sum(np.abs(p.mean - q.mean) ** 2)
    std_term = np.sum((np.sqrt(p.var) - np.sqrt(q.var)) ** 2)
    return float(np.sqrt(mean_term + std_term))


def wiener_gain(prior: SpectralPrior, spec: DegradationSpec) -> np.ndarray:
    """Per-bin Wiener coefficient lambda * conj(h) / (lambda |h|^2 + sigma^2)."""
    lam = prior.lambda0
    h = spec.lambda_h
    den = lam * np.abs(h) ** 2 + spec.sigma_y**2
    if np.any(den == 0):
        raise ValueError("degenerate bin")
    return lam * np.conj(h) / den


def _target_std(prior: SpectralPrior, spec: DegradationSpec) -> np.ndarray:
    lam = prior.lambda0
    den = lam * np.abs(spec.lambda_h) ** 2 + spec.sigma_y**2
    safe = np.where(den == 0, 1.0, den)
    lam_post = np.where(den == 0, lam, lam - lam**2 * np.abs(spec.lambda_h) ** 2 / safe)
    return np.sqrt(np.maximum(lam_post, 0.0))


def triples_loss(
    D1: np.ndarray,
    D2: np.ndarray,
    D3: np.ndarray,
    prior: SpectralPrior,
    spec: DegradationSpec,
    ys: np.ndarray | None,
) -> np.ndarray:
    """Squared W2 to the true posterior, shape (B,), of (B, d) sampler triples.

    ``ys`` stacks the (K, d) measurements to average over.  ``None`` takes the
    closed-form average over the measurement law instead, the K -> infinity
    limit: the mean term then splits into the measurement covariance picked
    up by M = D2 - A (the per-bin power d * (lambda |h|^2 + sigma^2)) plus the
    deterministic offset.
    """
    A = wiener_gain(prior, spec)
    target_std = _target_std(prior, spec)
    var_term = np.sum((target_std - np.abs(D1)) ** 2, axis=1)
    M = D2 - A
    bcoef = D3 - 1.0 + A * spec.lambda_h
    if ys is None:
        y_power = prior.lambda0 * np.abs(spec.lambda_h) ** 2 + spec.sigma_y**2
        trace_term = prior.dim * np.sum(np.abs(M) ** 2 * y_power, axis=1)
        offset = np.sum(
            np.abs(M * (spec.lambda_h * prior.mu_f) + bcoef * prior.mu_f) ** 2,
            axis=1,
        )
        return var_term + trace_term + offset
    # (B, K, d) mean discrepancies, averaged over K.
    diff = M[:, None, :] * ys[None, :, :] + (bcoef * prior.mu_f)[:, None, :]
    return var_term + np.mean(np.sum(np.abs(diff) ** 2, axis=2), axis=1)


def batch_loss(
    kind: str,
    thetas: np.ndarray,
    ctx: LossContext,
) -> np.ndarray:
    """Loss values, shape (B,), for a batch of packed weight vectors."""
    D1, D2, D3 = batch_triples(kind, thetas, ctx.prior, ctx.spec, ctx.schedule)
    ys = None if ctx.observations is None else np.stack([o.y_f for o in ctx.observations])
    return triples_loss(D1, D2, D3, ctx.prior, ctx.spec, ys)


def weights_loss(weights: WeightSchedule, ctx: LossContext) -> float:
    """The context's loss of one weight schedule.

    For the closed-form measurement average of a context that carries
    observations, pass ``replace(ctx, observations=None)``.
    """
    return float(batch_loss(weights.kind, weights.theta, ctx)[0])


def triple_realization_loss(
    triple: TransferTriple, prior: SpectralPrior, spec: DegradationSpec, obs: Observation
) -> float:
    """Squared W2 between a sampler triple's output law and the true posterior."""
    D1, D2, D3 = (D[None] for D in (triple.D1, triple.D2, triple.D3))
    return float(triples_loss(D1, D2, D3, prior, spec, obs.y_f[None])[0])
