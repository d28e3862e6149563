"""Per-step multipliers and composed transfer functions of guided DDIM samplers.

Each sampler's spectral update has the per-frequency form
``x[s-1] = G(s) x[s] + Q(s) y + M(s) mu``; composing the S steps yields a
triple (D1, D2, D3) mapping the starting noise, the measurement, and the
prior mean straight to the output, whose distribution is then Gaussian with
mean D2 y + D3 mu and per-bin variance |D1|^2.

This module is the only place the step formula lives: every sampler has
one form.  With the unguided DDIM step G0 = a + b c, M0 = b dd (c and dd are
the prior denoiser's per-bin gains) and the guidance directions c^2 |h|^2,
c conj(h) and c |h|^2 dd, a guided step is

    G = G0 - (w c^2 |h|^2) e,   Q = (w c conj(h)) e,   M = M0 - (w c |h|^2 dd) e

with a per-step gain w and likelihood weight e.  DPS takes w = 2 zeta and no
likelihood weight; PiGDM takes w = g and e = 1 / (r^2 |h|^2 + sigma^2), the
inverse of its likelihood covariance r^2 H H^T + sigma^2 I.  That is all
they differ in, and each kind's family object in ``FAMILIES`` owns it.  The
ideal sampler, the DDIM step with the MAP denoiser, is PiGDM at fixed
w = b k and r^2 = k c with k = (1 - alpha_bar) / sqrt(alpha_bar): by
Tweedie's formula k c is the per-bin Var[x0 | x_t].  It has no weights.

A ``StepTable`` holds those per-step arrays for one (sampler, prior,
degradation, schedule), so a solve builds them once, from one
``step_coeffs`` call over all S steps, in step order.  For one packed
weight vector it gives every step's (S, d) multipliers (``step_arrays``),
composes them into the triple (``compose``), and gives a loss of the triple
with its gradient over the weights in one call (``value_and_grad``).  Every
composition runs in one workspace that the table allocates when it is built
(the class docstring gives its layout).  The forward sweep writes every
running state (p, q, m) into its (S+1, 3, d) state buffer, two in-place
ufunc calls per step on flat (3d,) rows of one shape, and the triple comes
from the last row; the loss scores it, and one backward sweep over the
suffix products of G then reads the states from the buffer and turns the
loss cotangents dL/d conj(D) into U = dL/d(w e) in O(S d), which the family
pulls back to dL/dtheta.  Triples, step arrays and gradients are new arrays.

Both sweeps run in real float64 arithmetic, and that is exact, not an
approximation.  lambda is a real spectrum, a, b, c, dd, |h|^2, sigma^2, w and
e are real, so every sampler's G and M are real and its Q is conj(h) times a
real array Q_r.  Because G is real, q evolves as the real recurrence
q_r <- G q_r + Q_r times the constant factor conj(h), so D2 = conj(h) q_r:
the table composes Q_r and applies conj(h) once, to the last row.  In
reverse, 2 Re(conj(c) dD) of a real dD only needs Re c, and D2's term needs
Re(conj(c2) conj(h)).  None of this asks h to be Hermitian.  With h in
{0, 1}, as in ``make_lpf``, the products by conj(h) are exact and the
results keep the bits of the complex recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import Schedule, step_coeffs
from .spectral import DegradationSpec, SpectralPrior, _require_same_dim, _vector

__all__ = [
    "DPS",
    "PIGDM",
    "IDEAL",
    "WeightSchedule",
    "StepTable",
    "batch_triples",
    "transfer_triple",
    "ideal_triple",
    "pigdm_heuristic_weights",
]

DPS = "dps"
PIGDM = "pigdm"
IDEAL = "ideal"

DEFAULT_BOUNDS = (-5.0, 5.0)  # the box of every weight, and the config's sampler.bounds


class _Family:
    """A guided sampler's packed weights theta: ``fields``, S entries each, gain first.

    ``weigh`` applies ``gains(theta, table)`` to a guidance direction, and
    ``pullback`` turns U = dL/d(w e), (S, d) in step order, into dL/dtheta.
    """

    nonnegative = ()  # the fields floored at 0

    def box(self, S: int, bounds: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
        """Per-entry (lower, upper) bounds of theta: bounds, with lo raised to 0 on a nonnegative field."""
        lo, hi = bounds
        for field in self.nonnegative:
            if hi < 0:
                raise ValueError(f"upper end {hi:g} is below 0, where {self.name}'s {field} >= 0 starts")
        lower = [np.full(S, max(lo, 0.0) if f in self.nonnegative else float(lo)) for f in self.fields]
        return np.concatenate(lower), np.full(len(lower) * S, float(hi))

    def weigh(self, gains, direction, out, t):
        return np.multiply(gains, direction, out=out)


class _Dps(_Family):
    """DPS: theta = zeta, w = 2 zeta and no e, so dL/dzeta sums 2 U over the bins."""

    name, fields = "DPS", ("zeta",)

    def start(self, sched: Schedule) -> np.ndarray:
        return np.full(sched.S, 0.1)

    def gains(self, theta, table):
        return 2.0 * theta[:, None]

    def pullback(self, U, theta, gains, table):
        return 2.0 * U.sum(axis=1)


class _Pigdm(_Family):
    """PiGDM: theta = [g, r], w = g, e = 1 / (r^2 |h|^2 + sigma^2) and r >= 0.

    So d(w e)/dg = e and d(w e)/dr = -2 g r |h|^2 e^2.  The start is the
    published rule: unit gain, r^2 = 1 - alpha_bar.
    """

    name, fields, nonnegative = "PiGDM", ("g", "r"), ("r",)

    def start(self, sched: Schedule) -> np.ndarray:
        return np.concatenate([np.ones(sched.S), np.sqrt(1.0 - sched.alpha_bar)])

    def gains(self, theta, table):
        w, r = theta[: table.S, None], theta[table.S :, None]
        e = table._scratch[0]
        np.multiply(r**2, table.habs2, out=e)
        # r^2 |h|^2 + sigma^2 can only vanish without measurement noise.
        if table.sig2 == 0 and np.any(e == 0):
            raise ValueError("zero likelihood-covariance bin")
        np.add(e, table.sig2, out=e)
        return w, np.divide(1.0, e, out=e)

    def weigh(self, gains, direction, out, t):
        """(w direction) e into out, formed in t; w e first would round otherwise."""
        np.multiply(gains[0], direction, out=t)
        return np.multiply(t, gains[1], out=out)

    def pullback(self, U, theta, gains, table):
        (w, e), (_, _, a1, a2, _) = gains, table._scratch
        dg = np.multiply(e, U, out=a1).sum(axis=1)
        np.multiply(-2.0 * w * theta[table.S :, None], table.habs2, out=a1)
        np.multiply(a1, np.square(e, out=a2), out=a1)
        dr = np.multiply(a1, U, out=a1).sum(axis=1)
        return np.concatenate([dg, dr])


class _Ideal(_Family):
    """The MAP-denoiser sampler: PiGDM at fixed w = b k and e = 1 / (k c |h|^2 + sigma^2)."""

    fields, weigh = (), _Pigdm.weigh

    def gains(self, theta, table):
        return table._fixed

    def pullback(self, U, theta, gains, table):
        return np.empty(0)


FAMILIES, _IDEAL = {DPS: _Dps(), PIGDM: _Pigdm()}, _Ideal()


@dataclass(frozen=True)
class WeightSchedule:
    """Per-step guidance weights: a read-only copy of the packed vector theta.

    Its family's fields, zeta for DPS and g, r for PiGDM, are views of theta.
    """

    kind: str
    theta: np.ndarray

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown sampler kind: {self.kind}")
        family, theta = FAMILIES[self.kind], _vector(self.theta, float, "theta")
        if len(theta) % len(family.fields):
            raise ValueError(f"theta must split into {' and '.join(family.fields)} of the same length")
        object.__setattr__(self, "theta", theta)
        if np.any(theta < family.box(self.steps, (-np.inf, np.inf))[0]):
            raise ValueError(f"{' and '.join(family.nonnegative)} must be nonnegative")

    def __getattr__(self, name: str) -> np.ndarray:
        family = FAMILIES.get(vars(self).get("kind"))
        if family is None or name not in family.fields:
            raise AttributeError(f"a {vars(self).get('kind')!r} WeightSchedule has no {name!r}")
        return np.split(self.theta, len(family.fields))[family.fields.index(name)]

    @classmethod
    def dps(cls, zeta) -> "WeightSchedule":
        return cls(DPS, zeta)

    @classmethod
    def pigdm(cls, g, r) -> "WeightSchedule":
        if np.shape(g) != np.shape(r):
            raise ValueError("g and r must have the same length")
        return cls(PIGDM, np.concatenate([g, r]))

    @property
    def steps(self) -> int:
        return len(self.theta) // len(FAMILIES[self.kind].fields)


class StepTable:
    """One sampler's per-step arrays over a fixed prior, degradation and schedule.

    Building the table costs one ``step_coeffs`` call, for all S steps at
    once; every weight vector is then evaluated against it, so a solve builds
    one table.  The arrays are real float64 (S, d), in step order s = 1..S:
    the unguided step (G0, M0), the guidance directions (dG, dQ, dM) and the
    ideal sampler's fixed gains (w, e).  Every Q and dQ is held without its
    factor conj(h), which ``step_arrays`` and the composed D2 put back; the
    module docstring says why that is exact.

    The table also owns one workspace, allocated here and reused by every
    composition:

    * ``_x``, (S+1, 3, d): the running states (p, q, m), row s before step s
      and row 0 the output;
    * ``_g``, (S, 3, d): each step's G copied over its three rows;
    * ``_src``, (S, 3, d): each step's sources (0, Q, M), whose p row stays 0;
    * ``_scratch``, five (S, d) arrays: PiGDM's e and the reverse sweep's
      temporaries (the suffix products of G and three more), which ``_steps``
      and the family's pullback also use.

    ``_steps`` writes one weight vector's G, Q and M into ``_g`` and ``_src``.
    The three arrays are split once into flat (3d,) rows, so a step of the
    forward sweep is two ufunc calls on contiguous 1-D operands of one shape.
    A sweep is S such pairs on rows of a few hundred numbers, so the per-call
    overhead is most of its cost, and that overhead is lowest for same-shape
    contiguous operands: at d = 50, on a 2-core Xeon, a call took about 0.9 us
    with G's (d,) row broadcast over the (3, d) state, 0.5 us with (3, d)
    operands and 0.4 us with flat (3d,) rows.

    Nothing the table hands out (``step_arrays``, triples, gradients) aliases
    the workspace, and every call rewrites it, so one table serves one
    thread at a time.
    """

    def __init__(self, kind: str, prior: SpectralPrior, spec: DegradationSpec, sched: Schedule):
        if kind not in (*FAMILIES, IDEAL):
            raise ValueError(f"unknown sampler kind: {kind}")
        _require_same_dim(prior, spec)
        S, d = sched.S, prior.dim
        self._family = FAMILIES.get(kind, _IDEAL)
        self.S, self.width = S, len(self._family.fields) * S
        self.hbar = np.conj(spec.lambda_h)
        self.habs2 = np.abs(spec.lambda_h) ** 2
        self.sig2 = spec.sigma_y**2
        self._x = np.empty((S + 1, 3, d))
        self._x[S] = [[1.0], [0.0], [0.0]]
        self._g = np.empty((S, 3, d))
        self._src = np.zeros((S, 3, d))
        # The forward sweep walks the rows backwards: step s reads state row s
        # and writes row s - 1.
        rows, g, src = (list(x.reshape(len(x), 3 * d)) for x in (self._x, self._g, self._src))
        self._flat_steps = list(zip(g[::-1], rows[:0:-1], rows[-2::-1], src[::-1]))
        self._gqm = (self._g[:, 0], self._src[:, 1], self._src[:, 2])
        a, b, c, dd = step_coeffs(sched, prior)
        self.G0, self.M0 = a + b * c, b * dd
        self.dG, self.dQ, self.dM = c**2 * self.habs2, c, c * self.habs2 * dd
        self._scratch = tuple(np.empty((S, d)) for _ in range(5))
        if kind == IDEAL:
            k = (1.0 - sched.alpha_bar[:, None]) / np.sqrt(sched.alpha_bar[:, None])
            e = k * c * self.habs2 + self.sig2
            if np.any(e == 0):
                raise ValueError("zero denominator bin")
            self._fixed = b * k, 1.0 / e

    def _steps(self, theta):
        """theta's real (S, d) (G, Q / conj(h), M), as views of the workspace, and its gains.

        The gains are the family's, the fixed (w, e) for the ideal sampler.
        Products run in the contiguous temporary t and only the last writes a
        strided view of the workspace: at d = 50 an in-place ufunc on such a
        view took twice as long.
        """
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.width,):
            raise ValueError(
                f"weight vector shape {theta.shape} must match the schedule's ({self.width},)"
            )
        G, Q, M = self._gqm
        family = self._family
        gains, t = family.gains(theta, self), self._scratch[4]
        # G is formed in t and written over its three rows in one pass.
        np.subtract(self.G0, family.weigh(gains, self.dG, t, t), out=t)
        np.copyto(self._g, t[:, None])
        family.weigh(gains, self.dQ, Q, t)
        np.subtract(self.M0, family.weigh(gains, self.dM, t, t), out=M)
        return (G, Q, M), gains

    def step_arrays(self, theta):
        """Every step's (G, Q, M), each (S, d), in step order s = 1..S.

        ``theta`` is one packed weight vector (``WeightSchedule.theta``), empty
        for the ideal sampler.  Every step is G0 - (w dG) e, (w dQ) e,
        M0 - (w dM) e; DPS has no e.  G and M are real and Q complex, the
        table's real Q times conj(h).  All three are new arrays, not views of
        the workspace.
        """
        G, Q, M = self._steps(theta)[0]
        return G.copy(), Q * self.hbar, M.copy()

    def _sweep(self) -> np.ndarray:
        """The workspace's real (S+1, 3, d) running states after the last ``_steps``.

        Row s is (p, q, m) before step s and row 0 the end.  From (1, 0, 0) in
        row S, each step s, from S down, multiplies row s by its copied G into
        row s - 1 and adds the sources (0, Q, M) to it, in place.  Q is the
        real source, so q is D2 / conj(h) until ``_triple`` applies conj(h).
        """
        multiply, add = np.multiply, np.add
        for g, before, after, src in self._flat_steps:
            multiply(g, before, out=after)
            add(after, src, out=after)
        return self._x

    def _triple(self, x):
        """Complex (D1, D2, D3), each (d,), from row 0 of a sweep; new arrays."""
        p, q, m = x[0]
        return p.astype(complex), q * self.hbar, m.astype(complex)

    def compose(self, theta):
        """Composed (D1, D2, D3), each (d,), of one packed weight vector.

        The running state follows (p, q, m) <- (G p, G q + Q, G m + M) from
        (1, 0, 0) over the steps from s = S down to 1, which reproduces the
        product-sum closed form because the per-bin factors commute.
        """
        self._steps(theta)
        return self._triple(self._sweep())

    def value_and_grad(self, theta, score):
        """(L, dL/dtheta) of one packed weight vector, where L is score's loss of its triple.

        ``score(D1, D2, D3)`` returns the real loss L of the composed (d,)
        triple and its cotangents (c1, c2, c3), c_k = dL/d conj(D_k).  The
        forward sweep keeps every running state in the workspace, the reverse
        sweep maps the cotangents to U = dL/d(w e) and the family pulls U back
        to dL/dtheta, empty for the ideal sampler.  D_k depends on step s's
        multipliers only through suffix_s (G_s state_s + source_s), where
        state_s = (p, q, m) is the state before step s and suffix_s the
        product of the G of steps s-1..1, which run after it, so one
        cumulative product gives every step's sensitivity at O(S d) cost.
        ``score`` must not use the table.
        """
        theta = np.asarray(theta, dtype=float)
        (G, _, _), gains = self._steps(theta)
        x = self._sweep()
        loss, (c1, c2, c3) = score(*self._triple(x))
        p, q, m = x[1:, 0], x[1:, 1], x[1:, 2]
        _, a3, a1, a2, U = self._scratch
        # a3 starts as the suffix products of G, the steps run after s: 1 for step 1.
        a3[0] = 1.0
        np.cumprod(G[:-1], axis=0, out=a3[1:])
        # Everything but D2's conj(h) is real, so only these real parts reach U.
        r2 = np.real(np.conj(c2) * self.hbar)
        np.multiply(a3, np.real(c1), out=a1)
        np.multiply(a3, r2, out=a2)
        np.multiply(a3, np.real(c3), out=a3)
        # A unit of w e moves step s's multipliers by (-dG, dQ, -dM), so
        # U = 2 (a2 dQ - (a1 p + a2 q + a3 m) dG - a3 dM), in that order.
        np.multiply(a2, self.dQ, out=U)
        np.multiply(a2, q, out=a2)
        np.multiply(a1, p, out=a1)
        np.add(a1, a2, out=a1)
        np.multiply(a3, m, out=a2)
        np.add(a1, a2, out=a1)
        np.multiply(a1, self.dG, out=a1)
        np.subtract(U, a1, out=U)
        np.multiply(a3, self.dM, out=a1)
        np.subtract(U, a1, out=U)
        np.multiply(U, 2.0, out=U)
        return loss, self._family.pullback(U, theta, gains, self)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composed (D1, D2, D3), each (d,), of a weighted sampler."""
    return batch_triples(weights.kind, weights.theta, prior, spec, sched)


def ideal_triple(
    prior: SpectralPrior, spec: DegradationSpec, sched: Schedule
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composed (D1, D2, D3), each (d,), of the MAP-denoiser sampler."""
    return batch_triples(IDEAL, np.empty(0), prior, spec, sched)


def pigdm_heuristic_weights(sched: Schedule) -> WeightSchedule:
    """The published PiGDM weighting, PiGDM's default start."""
    return WeightSchedule(PIGDM, FAMILIES[PIGDM].start(sched))
