"""Independent dense-matrix and stencil oracles used across the test suite.

Everything here works on explicit matrices or brute-force evaluations and
never calls the per-frequency code paths it is used to check.
"""

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

    Row j holds the state before step j of the (S, d) step arrays, from
    (1, 0, 0), under (p, q, m) <- (G p, G q + Q, G m + M); row S is the
    composed triple.  The states take the dtype of the step arrays.
    """
    p = np.ones(G.shape[1], dtype=np.result_type(G, Q, M))
    q = np.zeros_like(p)
    m = np.zeros_like(p)
    rows = [(p, q, m)]
    for Gj, Qj, Mj in zip(G, Q, M):
        p, q, m = Gj * p, Gj * q + Qj, Gj * m + Mj
        rows.append((p, q, m))
    return np.array(rows)


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
