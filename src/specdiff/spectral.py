"""Circulant Gaussian models in the Fourier domain.

Everything in this package works with one DFT convention: the forward
transform is unnormalized (``numpy.fft.fft``) and the inverse divides by the
length, so Parseval reads ``sum(|fft(x)|**2) / d == sum(x**2)``.  Spectral
means are stored in forward-transform units; variances are stored as
covariance eigenvalues (equivalently, spectral power divided by ``d``).

Every value type of the package, here and in ``schedule`` and ``transfer``,
takes its arrays through one helper, ``_vector``: a read-only 1-D copy,
nonempty and finite, or a ValueError naming the field.  Each class then
checks only its own rule, such as lambda >= 0 or a decreasing schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralPrior",
    "DegradationSpec",
    "Observation",
    "circulant_eigenvalues",
    "make_synthetic_prior",
    "make_lpf",
    "sample_prior",
    "degrade",
    "estimate_spectral_prior",
    "hermitian_mismatch",
]


def _vector(values, dtype, name: str) -> np.ndarray:
    """A read-only copy of values as dtype; raises unless it is 1-D, nonempty and finite."""
    arr = np.array(values, dtype=dtype)
    if arr.ndim != 1 or not arr.size or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be a finite, nonempty 1-D array")
    arr.setflags(write=False)
    return arr


def hermitian_mismatch(v: np.ndarray) -> float:
    """Max deviation of v from the conjugate symmetry of a real signal's DFT."""
    v = np.asarray(v, dtype=complex)
    d = len(v)
    mirrored = np.conj(v[(-np.arange(d)) % d])
    return float(np.max(np.abs(v - mirrored))) if d else 0.0


def _require_hermitian(v: np.ndarray, name: str) -> None:
    """Reject v unless it is the DFT of a real vector, up to relative round-off."""
    scale = max(1.0, float(np.max(np.abs(v))))
    if hermitian_mismatch(v) > 1e-12 * scale:
        raise ValueError(f"{name} is not Hermitian: it is not the DFT of a real signal or operator")


def _require_same_dim(
    prior: SpectralPrior, spec: DegradationSpec, *observations: Observation
) -> None:
    """Reject a degradation or measurement whose length is not the prior's."""
    for what, dim in [("degradation", spec.dim)] + [("measurement", o.dim) for o in observations]:
        if dim != prior.dim:
            raise ValueError(f"{what} has length {dim} but the prior has length {prior.dim}")


@dataclass(frozen=True)
class SpectralPrior:
    """Gaussian prior diagonalized by the DFT: spectral mean and eigenvalues."""

    mu_f: np.ndarray
    lambda0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu_f", _vector(self.mu_f, complex, "mu_f"))
        object.__setattr__(self, "lambda0", _vector(self.lambda0, float, "lambda0"))
        if len(self.mu_f) != self.dim:
            raise ValueError("mu_f and lambda0 must have the same length")
        if np.any(self.lambda0 < 0):
            raise ValueError("lambda0 must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.lambda0)

    def mu_time(self) -> np.ndarray:
        """Time-domain mean vector."""
        return np.fft.ifft(self.mu_f).real


@dataclass(frozen=True)
class DegradationSpec:
    """Circulant measurement operator (spectral multipliers) plus noise level."""

    lambda_h: np.ndarray
    sigma_y: float

    def __post_init__(self):
        object.__setattr__(self, "lambda_h", _vector(self.lambda_h, complex, "lambda_h"))
        if not 0 <= self.sigma_y < np.inf:
            raise ValueError("sigma_y must be finite and nonnegative")

    @property
    def dim(self) -> int:
        return len(self.lambda_h)


@dataclass(frozen=True)
class Observation:
    """Spectral measurement."""

    y_f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y_f", _vector(self.y_f, complex, "y_f"))

    @property
    def dim(self) -> int:
        return len(self.y_f)

    def y_time(self) -> np.ndarray:
        """Time-domain measurement; y_f must be the DFT of a real vector."""
        _require_hermitian(self.y_f, "y_f")
        return np.fft.ifft(self.y_f).real


def circulant_eigenvalues(first_row: np.ndarray) -> np.ndarray:
    """Eigenvalues of the circulant matrix with the given first row.

    Convention: eigenvalue k equals sum_j row[j] * exp(-2i*pi*j*k/d), i.e. the
    unnormalized DFT of the row.  For symmetric rows this is also the per-bin
    spectral multiplier of the operator.
    """
    row = np.asarray(first_row, dtype=float)
    if row.size == 0:
        raise ValueError("empty row")
    return np.fft.fft(row)


def make_synthetic_prior(d: int, l: float, mu_const: float = 0.0) -> SpectralPrior:
    """Stationary prior with covariance A^T A for a circulant ramp matrix A.

    The first row of A is the arithmetic sequence from -l to l with d equally
    spaced points, so the eigenvalues of the covariance are |fft(row)|^2.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if not 0 < l < np.inf:
        raise ValueError("l must be positive and finite")
    if not np.isfinite(mu_const):
        raise ValueError("mu_const must be finite")
    row = np.linspace(-l, l, d)
    lam = np.abs(circulant_eigenvalues(row)) ** 2
    mu_f = np.zeros(d, dtype=complex)
    mu_f[0] = d * mu_const
    return SpectralPrior(mu_f=mu_f, lambda0=lam)


def make_lpf(d: int, V: float, sigma_y: float = 0.0) -> DegradationSpec:
    """Ideal low-pass degradation keeping round(V*d) bins symmetric around DC.

    The kept bins are DC and the pairs (i, d-i) nearest to it, plus the
    middle bin of an even d when every bin is kept.  A budget that would keep
    one bin of a pair without its mirror describes no real operator and
    raises ValueError.
    """
    if not 0.0 < V <= 1.0:
        raise ValueError("V must lie in (0, 1]")
    k = max(1, int(np.floor(V * d + 0.5)))
    if k % 2 == 0 and k < d:
        lo = k // 2
        raise ValueError(f"keeping {k} of {d} bins splits the conjugate pair ({lo}, {d - lo})")
    dist = np.minimum(np.arange(d), d - np.arange(d))  # circular distance from DC
    return DegradationSpec(lambda_h=(dist <= k // 2).astype(complex), sigma_y=sigma_y)


def sample_prior(prior: SpectralPrior, rng: np.random.Generator) -> np.ndarray:
    """Draw one time-domain sample from the prior."""
    z = rng.standard_normal(prior.dim)
    shaped = np.fft.ifft(np.sqrt(prior.lambda0) * np.fft.fft(z)).real
    return prior.mu_time() + shaped


def degrade(x0: np.ndarray, spec: DegradationSpec, rng: np.random.Generator) -> Observation:
    """Apply the degradation and measurement noise; returns spectral data."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.dim,):
        raise ValueError("signal length does not match the degradation")
    x0_f = np.fft.fft(x0)
    y_f = spec.lambda_h * x0_f
    if spec.sigma_y > 0:
        y_f = y_f + np.fft.fft(spec.sigma_y * rng.standard_normal(spec.dim))
    return Observation(y_f=y_f)


def estimate_spectral_prior(samples: np.ndarray) -> SpectralPrior:
    """Estimate a stationary prior from rows of time-domain samples.

    Uses the biased (1/n) periodogram average; the /d factor puts the
    estimate in covariance-eigenvalue units, so feeding exact prior samples
    back in reproduces lambda0.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need at least two samples")
    n, d = samples.shape
    mean = samples.mean(axis=0)
    mu_f = np.fft.fft(mean)
    dev_f = np.fft.fft(samples - mean, axis=1)
    lam = np.mean(np.abs(dev_f) ** 2, axis=0) / d
    return SpectralPrior(mu_f=mu_f, lambda0=lam)
