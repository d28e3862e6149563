"""Wasserstein-2 losses between reconstructed and true posteriors.

The squared distance between two diagonal Gaussians, taken per frequency
bin, splits into a variance term over |D1| and a mean term.  The mean term
is one formula: the squared norm of the residual M y + (D3 - 1 + A h) mu,
M = D2 - A, averaged over the measurements y.  Over K given measurements
that is their mean; the closed-form average over the measurement law is the
same formula at the one mean measurement h mu plus the measurement
covariance M picks up, d * sum |M|^2 (lambda |h|^2 + sigma^2).  Everything
here is expressed per frequency bin, in the package's DFT units (means in
forward-transform units, variances as covariance eigenvalues), which is why
that covariance carries the factor d.  One private routine, ``_score``,
scores a sampler's (d,) triple against a ``_Target``, the posterior's
per-bin constants and the measurements it scores, and gives the loss with
its cotangents dL/d conj(D).  A ``LossContext`` builds its target and its
sampler's step table once, on first use; every public function is a short
call of ``_score``, and ``loss_and_gradient`` hands ``_score`` to the
table's ``value_and_grad``, whose reverse sweep turns the cotangents into
the exact gradient over the weights.
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
from .transfer import DPS, FAMILIES, StepTable, WeightSchedule, batch_triples

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
        if self.sampler_kind not in FAMILIES:
            raise ValueError(f"unknown sampler kind: {self.sampler_kind}")
        if self.observations is not None:
            obs = tuple(self.observations)
            if len(obs) < 1:
                raise ValueError("need at least one observation")
            object.__setattr__(self, "observations", obs)
        _require_same_dim(self.prior, self.spec, *(self.observations or ()))

    @cached_property
    def _target(self) -> _Target:
        """The posterior target of the context's model and measurements, made once."""
        ys = None if self.observations is None else np.stack([o.y_f for o in self.observations])
        return _Target(self.prior, self.spec, ys)

    @cached_property
    def _table(self) -> StepTable:
        """The step table of the context's sampler, model and schedule, made once.

        Its workspace serves one thread at a time, and so does the context.
        """
        return StepTable(self.sampler_kind, self.prior, self.spec, self.schedule)


class _Target:
    """The true posterior's per-bin constants and the measurements a score averages over.

    ``A`` is the Wiener gain, ``std`` the posterior std and ``power`` the
    measurement power lambda |h|^2 + sigma^2: the per-bin measurement
    variance (d times it, ``d_power``, in DFT units) and the denominator of
    both others.  ``ys`` holds the measurements the mean term scores: the
    (K >= 1, d) stack given, which ``mean`` averages over K, or, for the
    closed-form average over the measurement law (``averaged``), the one mean
    measurement h mu with no K axis, which ``mean`` returns as it is.  The
    average's score then adds the covariance term of ``d_power``.
    """

    def __init__(self, prior: SpectralPrior, spec: DegradationSpec, ys: np.ndarray | None):
        _require_same_dim(prior, spec)
        if ys is not None and (np.ndim(ys) != 2 or np.shape(ys)[0] < 1 or np.shape(ys)[1] != prior.dim):
            raise ValueError(f"measurements have shape {np.shape(ys)}, not (K, {prior.dim}) with K >= 1")
        lam, h, mu = prior.lambda0, spec.lambda_h, prior.mu_f
        habs2 = np.abs(h) ** 2
        power = lam * habs2 + spec.sigma_y**2
        if np.any(power == 0):
            raise ValueError("degenerate bin")
        self.A = lam * np.conj(h) / power
        self.std = np.sqrt(np.maximum(lam - lam**2 * habs2 / power, 0.0))
        self.dim, self.power, self.d_power = prior.dim, power, prior.dim * power
        self.Ah, self.mu, self.conj_mu = self.A * h, mu, np.conj(mu)
        self.averaged = ys is None
        self.ys = h * mu if self.averaged else ys
        self.conj_ys = np.conj(self.ys)

    def mean(self, x):
        """The mean of x over the measurements' K axis; the average's one measurement has none."""
        return x if self.averaged else np.add.reduce(x, axis=0) / len(self.ys)


def _score(D1, D2, D3, t: _Target):
    """Squared W2 of the triple (D1, D2, D3) to t and its cotangents: (loss, (c1, c2, c3)).

    The loss is the variance term, plus the average's covariance term, plus
    ``t.mean`` of the squared residual norm.  Sums are ``np.add.reduce`` and
    ``t.mean`` their quotient by K, which is what ``np.sum`` and ``np.mean``
    compute.
    """
    absD1 = np.abs(D1)
    M = D2 - t.A
    bcoef = D3 - 1.0 + t.Ah
    loss = np.add.reduce((t.std - absD1) ** 2)
    resid = M * t.ys + bcoef * t.mu
    c2 = t.mean(resid * t.conj_ys)
    if t.averaged:  # the measurement covariance that M picks up
        loss = loss + t.dim * np.add.reduce(np.abs(M) ** 2 * t.power)
        c2 = t.d_power * M + c2
    loss = float(loss + t.mean(np.add.reduce(np.abs(resid) ** 2, -1)))
    # The unit D1/|D1| must stay a complex division, which numpy rounds as
    # D1 * (1/|D1|).  A real np.sign changed the last bit of c1 in all 600
    # evaluations tried on the reference model, and so where solves stop:
    # sweep's S=20 dps-optimized W2 0.6406427646966131 -> 0.6407687634102257,
    # ladder-avg's S=200 DPS loss 0.020148829994948533 -> 0.020221708796690167.
    unit = np.divide(D1, absD1, out=np.zeros_like(D1), where=absD1 > 0)
    return loss, ((absD1 - t.std) * unit, c2, t.mean(resid) * t.conj_mu)


def _score_triple(triple, prior: SpectralPrior, spec: DegradationSpec, ys):
    """``_score`` of a caller's triple, whose components must each be (d,)."""
    for k, D in enumerate(triple, 1):
        if np.shape(D) != (prior.dim,):
            raise ValueError(f"D{k} has shape {np.shape(D)}, not the prior's ({prior.dim},)")
    return _score(*triple, _Target(prior, spec, ys))


def triples_loss(
    D1: np.ndarray,
    D2: np.ndarray,
    D3: np.ndarray,
    prior: SpectralPrior,
    spec: DegradationSpec,
    ys: np.ndarray | None,
) -> float:
    """Squared W2 to the true posterior of one (d,) sampler triple.

    ``ys`` stacks the (K, d) measurements to average over.  ``None`` takes the
    closed-form average over the measurement law instead, the K -> infinity
    limit: the loss at the one mean measurement h mu plus the measurement
    covariance picked up by M = D2 - A (the per-bin power
    d * (lambda |h|^2 + sigma^2)).
    """
    return _score_triple((D1, D2, D3), prior, spec, ys)[0]


def triples_loss_cotangents(
    D1: np.ndarray,
    D2: np.ndarray,
    D3: np.ndarray,
    prior: SpectralPrior,
    spec: DegradationSpec,
    ys: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cotangents dL/d conj(D_k), each (d,), of ``triples_loss`` L.

    These are the conjugate (Wirtinger) derivatives: a change dD_k moves L
    by 2 Re sum(conj(c_k) dD_k).  ``StepTable.value_and_grad`` turns
    them into the gradient over the weights.  Where |D1| = 0 the variance
    term is not differentiable and its cotangent is taken as 0.
    """
    return _score_triple((D1, D2, D3), prior, spec, ys)[1]


def batch_loss(kind: str, theta: np.ndarray, ctx: LossContext) -> float:
    """The context's loss of one packed weight vector of the context's sampler kind.

    It takes one vector, not a batch; the name stays until the benchmark
    hooks that wrap it move in a declared benchmark change.
    """
    if kind != ctx.sampler_kind:
        raise ValueError("weights do not match the context's sampler kind")
    return _score(*batch_triples(kind, theta, ctx.prior, ctx.spec, ctx.schedule), ctx._target)[0]


def loss_and_gradient(theta: np.ndarray, ctx: LossContext) -> tuple[float, np.ndarray]:
    """The context's loss of one packed weight vector and its exact gradient.

    One forward sweep of the context's step table composes the triple, one
    ``_score`` gives the loss (equal to ``batch_loss`` bit for bit) and its
    cotangents, and one reverse sweep over the cotangents gives the gradient.
    """
    return ctx._table.value_and_grad(theta, lambda *t: _score(*t, ctx._target))


def weights_loss(weights: WeightSchedule, ctx: LossContext) -> float:
    """The context's loss of one weight schedule.

    For the closed-form measurement average of a context that carries
    observations, pass ``replace(ctx, observations=None)``.
    """
    return batch_loss(weights.kind, weights.theta, ctx)


def triple_realization_loss(
    triple: tuple, prior: SpectralPrior, spec: DegradationSpec, obs: Observation
) -> float:
    """Squared W2 between the output law of a sampler's (D1, D2, D3) and the true posterior."""
    _require_same_dim(prior, spec, obs)
    return _score_triple(triple, prior, spec, obs.y_f[None])[0]
