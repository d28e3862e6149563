"""Wasserstein-2 losses between reconstructed and true posteriors.

The squared distance splits into a variance term over |D1| and a mean term
over the Wiener-filtered measurement.  Everything here is expressed per
frequency bin, in the package's DFT units (means in forward-transform units,
variances as covariance eigenvalues), so the measurement-power term of the
analytic average carries the factor d that relates the two.  Each function
scores one sampler, given as a (d,) triple or as the packed weight vector
that composes it.  ``triples_loss`` gives the one formula; ``batch_loss``
feeds it a weight vector's triple, and ``weights_loss`` and
``triple_realization_loss`` are calls of those.  ``triples_loss_cotangents``
gives the loss's derivatives dL/d conj(D) for the same two modes, and
``loss_and_gradient`` chains them through a step table's reverse sweep into
the exact gradient over the weights.  Both share the private ``_loss`` and
``_cotangents``, so a gradient call forms M = D2 - A and the mean residual
once for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# The step table in transfer.py takes every coefficient from step_coeffs, so
# these two are no longer called here; perfbench/hooks.py still wraps them
# under this module's name.
from .schedule import Schedule, denoiser_coeffs, step_coeffs_scalar  # noqa: F401
from .spectral import DegradationSpec, Observation, SpectralPrior, _require_same_dim
from .transfer import DPS, PIGDM, StepTable, TransferTriple, WeightSchedule, batch_triples

__all__ = [
    "LossContext",
    "triples_loss",
    "triples_loss_cotangents",
    "batch_loss",
    "loss_and_gradient",
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
        _require_same_dim(self.prior, self.spec, *(self.observations or ()))

    @cached_property
    def _fixed(self):
        """``_posterior_bins`` and the (K, d) stacked measurements or None, made once."""
        ys = None if self.observations is None else np.stack([o.y_f for o in self.observations])
        return _posterior_bins(self.prior, self.spec), ys


def _posterior_bins(prior: SpectralPrior, spec: DegradationSpec):
    """Per-bin Wiener gain A, posterior std and measurement power.

    The power lambda |h|^2 + sigma^2 is the per-bin measurement variance (d
    times it in DFT units) and the denominator of both other terms.
    """
    lam, habs2 = prior.lambda0, np.abs(spec.lambda_h) ** 2
    power = lam * habs2 + spec.sigma_y**2
    if np.any(power == 0):
        raise ValueError("degenerate bin")
    gain = lam * np.conj(spec.lambda_h) / power
    std = np.sqrt(np.maximum(lam - lam**2 * habs2 / power, 0.0))
    return gain, std, power


def _mean_residual(D2, D3, A, prior: SpectralPrior, spec: DegradationSpec, ys):
    """M = D2 - A and the mean residual of the sampler against the posterior mean.

    The residual is (K, d) for the stacked measurements ``ys``; for the
    closed-form average (``ys=None``) it is the deterministic (d,) offset
    M h mu + (D3 - 1 + A h) mu.
    """
    M = D2 - A
    bcoef = D3 - 1.0 + A * spec.lambda_h
    if ys is None:
        return M, M * (spec.lambda_h * prior.mu_f) + bcoef * prior.mu_f
    return M, M * ys + bcoef * prior.mu_f


def _loss(D1, std, power, M, resid, dim: int, ys) -> float:
    """``triples_loss`` from |D1|'s target ``std``, ``power`` and ``_mean_residual``."""
    var_term = np.sum((std - np.abs(D1)) ** 2)
    if ys is None:
        trace_term = dim * np.sum(np.abs(M) ** 2 * power)
        return float(var_term + trace_term + np.sum(np.abs(resid) ** 2))
    return float(var_term + np.mean(np.sum(np.abs(resid) ** 2, axis=1)))


def _cotangents(D1, std, power, M, resid, prior: SpectralPrior, spec: DegradationSpec, ys):
    """``triples_loss_cotangents`` from the same pieces as ``_loss``."""
    absD1 = np.abs(D1)
    # The unit D1/|D1| must stay a complex division, which numpy rounds as
    # D1 * (1/|D1|).  A real np.sign changed the last bit of c1 in all 600
    # evaluations tried on the reference model, and so where solves stop:
    # sweep's S=20 dps-optimized W2 0.6406427646966131 -> 0.6407687634102257,
    # ladder-avg's S=200 DPS loss 0.020148829994948533 -> 0.020221708796690167.
    unit = np.divide(D1, absD1, out=np.zeros_like(D1), where=absD1 > 0)
    c1 = (absD1 - std) * unit
    if ys is None:
        c2 = prior.dim * power * M + resid * np.conj(spec.lambda_h * prior.mu_f)
        return c1, c2, resid * np.conj(prior.mu_f)
    c2 = np.mean(resid * np.conj(ys), axis=0)
    return c1, c2, np.mean(resid, axis=0) * np.conj(prior.mu_f)


def triples_loss(
    D1: np.ndarray,
    D2: np.ndarray,
    D3: np.ndarray,
    prior: SpectralPrior,
    spec: DegradationSpec,
    ys: np.ndarray | None,
    bins=None,
) -> float:
    """Squared W2 to the true posterior of one (d,) sampler triple.

    ``ys`` stacks the (K, d) measurements to average over.  ``None`` takes the
    closed-form average over the measurement law instead, the K -> infinity
    limit: the mean term then splits into the measurement covariance picked
    up by M = D2 - A (the per-bin power d * (lambda |h|^2 + sigma^2)) plus the
    deterministic offset.  ``bins`` passes in ``_posterior_bins(prior, spec)``.
    """
    A, std, power = bins or _posterior_bins(prior, spec)
    M, resid = _mean_residual(D2, D3, A, prior, spec, ys)
    return _loss(D1, std, power, M, resid, prior.dim, ys)


def triples_loss_cotangents(
    D1: np.ndarray,
    D2: np.ndarray,
    D3: np.ndarray,
    prior: SpectralPrior,
    spec: DegradationSpec,
    ys: np.ndarray | None,
    bins=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cotangents dL/d conj(D_k), each (d,), of ``triples_loss`` L.

    These are the conjugate (Wirtinger) derivatives: a change dD_k moves L
    by 2 Re sum(conj(c_k) dD_k).  ``StepTable.compose_with_pullback`` turns
    them into the gradient over the weights.  Where |D1| = 0 the variance
    term is not differentiable and its cotangent is taken as 0.
    """
    A, std, power = bins or _posterior_bins(prior, spec)
    M, resid = _mean_residual(D2, D3, A, prior, spec, ys)
    return _cotangents(D1, std, power, M, resid, prior, spec, ys)


def batch_loss(kind: str, theta: np.ndarray, ctx: LossContext) -> float:
    """The context's loss of one packed weight vector.

    It takes one vector, not a batch; the name stays until the benchmark
    hooks that wrap it move in a declared benchmark change.
    """
    D1, D2, D3 = batch_triples(kind, theta, ctx.prior, ctx.spec, ctx.schedule)
    bins, ys = ctx._fixed
    return triples_loss(D1, D2, D3, ctx.prior, ctx.spec, ys, bins)


def loss_and_gradient(
    table: StepTable, theta: np.ndarray, ctx: LossContext
) -> tuple[float, np.ndarray]:
    """The context's loss of one packed weight vector and its exact gradient.

    ``table`` is the context's StepTable.  One forward sweep composes the
    triple, the loss (equal to ``batch_loss`` bit for bit) and its
    cotangents share one M = D2 - A and mean residual, and one reverse sweep
    over the cotangents gives the gradient.
    """
    (D1, D2, D3), pullback = table.compose_with_pullback(theta)
    (A, std, power), ys = ctx._fixed
    M, resid = _mean_residual(D2, D3, A, ctx.prior, ctx.spec, ys)
    loss = _loss(D1, std, power, M, resid, ctx.prior.dim, ys)
    return loss, pullback(*_cotangents(D1, std, power, M, resid, ctx.prior, ctx.spec, ys))


def weights_loss(weights: WeightSchedule, ctx: LossContext) -> float:
    """The context's loss of one weight schedule.

    For the closed-form measurement average of a context that carries
    observations, pass ``replace(ctx, observations=None)``.
    """
    return batch_loss(weights.kind, weights.theta, ctx)


def triple_realization_loss(
    triple: TransferTriple, prior: SpectralPrior, spec: DegradationSpec, obs: Observation
) -> float:
    """Squared W2 between a sampler triple's output law and the true posterior."""
    _require_same_dim(prior, spec, obs)
    return triples_loss(triple.D1, triple.D2, triple.D3, prior, spec, obs.y_f[None])
