"""Independent oracles used across the test suite.

Three kinds of check live here: dense-matrix forms of the circulant
operators, conditioning and denoisers; finite-difference stencils and the
plain composition recurrence; and per-bin reference formulas of the exact
posterior, its Wiener gain, the W2 distance between diagonal Gaussians, the
prior MMSE and MAP denoisers and a sampler triple's output law.  The per-bin
formulas restate the paper's closed forms one bin at a time, as written in
the textbook, and the tests check each of them against the dense forms.

Nothing here imports specdiff or calls the code paths it is used to check.
The per-bin formulas read the package's prior, degradation, measurement and
triple objects only through their attributes (``mu_f``, ``lambda0``,
``lambda_h``, ``sigma_y``, ``y_f``, ``D1``..``D3``).
"""

from dataclasses import dataclass

import numpy as np


def dft_matrix(d: int) -> np.ndarray:
    """Unnormalized DFT matrix W with W[k, j] = exp(-2i pi k j / d)."""
    k = np.arange(d)
    return np.exp(-2j * np.pi * np.outer(k, k) / d)


def dense_circulant_from_row(row: np.ndarray) -> np.ndarray:
    """Circulant matrix whose first row is the given vector."""
    row = np.asarray(row, dtype=float)
    d = len(row)
    return np.array([[row[(j - i) % d] for j in range(d)] for i in range(d)])


def dense_operator_from_multiplier(mult: np.ndarray) -> np.ndarray:
    """Dense matrix of the operator acting as per-bin multiplication after fft."""
    d = len(mult)
    W = dft_matrix(d)
    return (W.conj().T @ np.diag(mult) @ W) / d


def circulant_eigs_of_dense(C: np.ndarray) -> np.ndarray:
    """Per-bin multipliers of a dense circulant matrix under the package DFT."""
    d = C.shape[0]
    W = dft_matrix(d)
    return np.diag(W @ C @ W.conj().T).copy() / d


def dense_gaussian_condition(mu0, Sigma0, H, sigma_y, y):
    """Textbook joint-Gaussian conditioning of the signal on the measurement."""
    Sy = H @ Sigma0 @ H.T + sigma_y**2 * np.eye(len(mu0))
    gain = Sigma0 @ H.T @ np.linalg.inv(Sy)
    mu_post = mu0 + gain @ (y - H @ mu0)
    Sigma_post = Sigma0 - gain @ H @ Sigma0
    return mu_post, Sigma_post


def dense_prior_denoiser(mu0, Sigma0, x_t, alpha_bar):
    """Dense-matrix MMSE denoiser under the prior alone."""
    d = len(mu0)
    lhs = alpha_bar * Sigma0 + (1 - alpha_bar) * np.eye(d)
    rhs = np.sqrt(alpha_bar) * Sigma0 @ x_t + (1 - alpha_bar) * mu0
    return np.linalg.solve(lhs, rhs)


def dense_map_denoiser(mu0, Sigma0, H, sigma_y, y, x_t, alpha_bar):
    """Dense-matrix MAP denoiser given both the noisy state and measurement."""
    d = len(mu0)
    s2 = sigma_y**2
    lhs = (1 - alpha_bar) * Sigma0 @ H.T @ H + s2 * alpha_bar * Sigma0 + s2 * (1 - alpha_bar) * np.eye(d)
    rhs = (1 - alpha_bar) * Sigma0 @ H.T @ y + s2 * np.sqrt(alpha_bar) * Sigma0 @ x_t + s2 * (1 - alpha_bar) * mu0
    return np.linalg.solve(lhs, rhs)


def log_posterior(x0, mu0, Sigma0_inv, H, sigma_y, y, x_t, alpha_bar):
    """Joint log density (up to constants) maximized by the MAP denoiser."""
    r1 = y - H @ x0
    r2 = x_t - np.sqrt(alpha_bar) * x0
    r3 = x0 - mu0
    return (
        -0.5 * (r1 @ r1) / sigma_y**2
        - 0.5 * (r2 @ r2) / (1 - alpha_bar)
        - 0.5 * r3 @ Sigma0_inv @ r3
    )


def running_states(G, Q, M):
    """(S+1, 3, d) states (p, q, m) of the plain composition recurrence.

    The (S, d) step arrays are in step order s = 1..S and run from s = S
    down, from (1, 0, 0), under (p, q, m) <- (G p, G q + Q, G m + M).  Row s
    holds the state before step s, row S the start and row 0 the composed
    triple.  The states take the dtype of the step arrays.
    """
    p = np.ones(G.shape[1], dtype=np.result_type(G, Q, M))
    q = np.zeros_like(p)
    m = np.zeros_like(p)
    rows = [(p, q, m)]
    for Gj, Qj, Mj in zip(G[::-1], Q[::-1], M[::-1]):
        p, q, m = Gj * p, Gj * q + Qj, Gj * m + Mj
        rows.append((p, q, m))
    return np.array(rows[::-1])


def central_gradient(f, x, h=1e-5):
    """Plain central-difference gradient."""
    g = np.empty_like(x, dtype=float)
    for i in range(len(x)):
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2 * h)
    return g


def five_point_gradient(f, x, h=1e-4):
    """Fourth-order five-point stencil gradient."""
    g = np.empty_like(x, dtype=float)
    for i in range(len(x)):
        xs = [x.copy() for _ in range(4)]
        xs[0][i] += 2 * h
        xs[1][i] += h
        xs[2][i] -= h
        xs[3][i] -= 2 * h
        g[i] = (-f(xs[0]) + 8 * f(xs[1]) - 8 * f(xs[2]) + f(xs[3])) / (12 * h)
    return g


def random_hermitian_multiplier(d: int, rng: np.random.Generator) -> np.ndarray:
    """Spectral multiplier of a random real circulant operator."""
    return np.fft.fft(rng.standard_normal(d))


def random_prior_arrays(d: int, rng: np.random.Generator, lam_floor=0.0):
    """Random valid (mu_f, lambda0) pair for a real stationary prior."""
    mu_f = np.fft.fft(rng.standard_normal(d))
    lam = np.abs(np.fft.fft(rng.standard_normal(d))) ** 2 + lam_floor
    return mu_f, lam


@dataclass(frozen=True)
class DiagGaussian:
    """Gaussian with per-frequency complex mean and nonnegative variance."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=complex)
        var = np.asarray(self.var, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)
        if mean.shape != var.shape:
            raise ValueError("mean and var must have the same length")
        if np.any(var < 0):
            raise ValueError("variances must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.mean)


def true_posterior(prior, spec, obs) -> DiagGaussian:
    """Exact Gaussian conditional of the signal given the measurement, per bin.

    Bins where lambda0*|h|^2 + sigma^2 vanishes carry no usable data and fall
    back to the prior (zero variance when the prior is deterministic there).
    """
    if obs.dim != prior.dim or spec.dim != prior.dim:
        raise ValueError("dimension mismatch")
    lam = prior.lambda0
    h = spec.lambda_h
    habs2 = np.abs(h) ** 2
    denom = lam * habs2 + spec.sigma_y**2
    num_mean = lam * np.conj(h) * (obs.y_f - h * prior.mu_f)
    dead = denom == 0
    if np.any(dead & (num_mean != 0)):
        raise ValueError("degenerate posterior bin")
    safe = np.where(dead, 1.0, denom)
    mean = np.where(dead, prior.mu_f, prior.mu_f + num_mean / safe)
    var = np.where(dead, lam, lam - lam**2 * habs2 / safe)
    return DiagGaussian(mean=mean, var=np.maximum(var, 0.0))


def wiener_gain(prior, spec) -> np.ndarray:
    """Per-bin Wiener coefficient lambda * conj(h) / (lambda |h|^2 + sigma^2)."""
    lam, h = prior.lambda0, spec.lambda_h
    return lam * np.conj(h) / (lam * np.abs(h) ** 2 + spec.sigma_y**2)


def w2_diag(p: DiagGaussian, q: DiagGaussian) -> float:
    """Wasserstein-2 distance between two commuting-diagonal Gaussians."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    mean_term = np.sum(np.abs(p.mean - q.mean) ** 2)
    std_term = np.sum((np.sqrt(p.var) - np.sqrt(q.var)) ** 2)
    return float(np.sqrt(mean_term + std_term))


def prior_optimal_denoise(prior, x_t_f: np.ndarray, alpha_bar_t: float) -> np.ndarray:
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
    prior, spec, y_f: np.ndarray, x_t_f: np.ndarray, alpha_bar_t: float
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


def tweedie_pigdm_weights(alpha_bar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PiGDM's (g, r) per step s = 1..S at which its step is the MAP step, on a white prior.

    Tweedie's formula gives the per-bin posterior variance Var[x0 | x_t] =
    (1 - ab) c / sqrt(ab) with c = sqrt(ab) lambda / (ab lambda + 1 - ab), so
    r^2 = 1 - ab at lambda = 1, and the gain is g = b (1 - ab) / sqrt(ab) with
    DDIM's b = sqrt(ab_prev) - sqrt(ab) sqrt((1 - ab_prev) / (1 - ab)).
    """
    ab = np.asarray(alpha_bar, dtype=float)
    prev = np.concatenate(([1.0], ab[:-1]))
    b = np.sqrt(prev) - np.sqrt(ab) * np.sqrt((1.0 - prev) / (1.0 - ab))
    return b * (1.0 - ab) / np.sqrt(ab), np.sqrt(1.0 - ab)


def output_distribution(triple, obs, prior) -> DiagGaussian:
    """Gaussian law of the sampler output for a fixed measurement."""
    D1, D2, D3 = triple
    mean = D2 * obs.y_f + D3 * prior.mu_f
    var = np.abs(D1) ** 2
    return DiagGaussian(mean=mean, var=var)
