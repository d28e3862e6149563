"""Output scorer: checks the CSVs a workload wrote against independent math.

The step multipliers, their composition and the W2 losses are written out
again here from the sampler update rules, so a defect in specdiff's own
``transfer``/``objective`` code cannot hide itself.  specdiff is used only to
read configs and to build the prior, the degradation, the schedule and the
observations the CLI drew.  The sweep's optimized rows are checked against
the weight solutions the CLI got back, which ``hooks.Counters`` records.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from specdiff.config import load_config
from specdiff.schedule import ddim_subsequence, linear_ddpm_schedule
from specdiff.spectral import degrade, make_lpf, make_synthetic_prior, sample_prior

# Seed tag the CLI mixes into the seed when it draws observation r.
_OBS_TAG = 101
IDEAL_RTOL = 1e-9
# Standard deviations allowed between a Monte-Carlo moment and its closed
# form; six keeps the chance of a false alarm over 50 bins below 1e-7.
MC_SIGMAS = 6.0


class ScoreError(Exception):
    """Raised when a workload's outputs are missing or wrong."""


def read_rows(path: Path) -> list[dict]:
    if not path.is_file():
        raise ScoreError(f"missing output {path}")
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


class Model:
    """The reference model of one config, in per-bin DFT form."""

    def __init__(self, config_path: Path):
        self.cfg = load_config(config_path)
        prior = make_synthetic_prior(self.cfg.prior_d, self.cfg.prior_l, self.cfg.prior_mu_const)
        self.prior = prior
        self.spec = make_lpf(prior.dim, self.cfg.V, sigma_y=self.cfg.sigma_y)
        self.lam = prior.lambda0
        self.mu = prior.mu_f
        self.h = self.spec.lambda_h
        self.habs2 = np.abs(self.h) ** 2
        self.sig2 = self.cfg.sigma_y**2
        den = self.lam * self.habs2 + self.sig2
        self.wiener = self.lam * np.conj(self.h) / den
        self.target_std = np.sqrt(np.maximum(self.lam * self.sig2 / den, 0.0))
        self.y_power = den
        self.full = linear_ddpm_schedule(self.cfg.T)

    def observation(self, seed: int, r: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([seed, _OBS_TAG, r]))
        return degrade(sample_prior(self.prior, rng), self.spec, rng).y_f

    def steps(self, S: int):
        """Per-step (alpha_bar, a, b, c, dd) in sampling order s = S..1."""
        ab = np.asarray(ddim_subsequence(self.full, S).alpha_bar)
        ab_prev = np.concatenate([[1.0], ab[:-1]])
        a = np.sqrt((1.0 - ab_prev) / (1.0 - ab))
        b = np.sqrt(ab_prev) - np.sqrt(ab) * a
        den = ab[:, None] * self.lam + (1.0 - ab[:, None])
        c = np.sqrt(ab)[:, None] * self.lam / den
        dd = (1.0 - ab[:, None]) / den
        order = slice(None, None, -1)
        return ab[order, None], a[order, None], b[order, None], c[order], dd[order]

    def triple(self, kind: str, S: int, zeta=None, g=None, r=None):
        """Composed (D1, D2, D3) of one sampler, by the one-step update rules."""
        ab, a, b, c, dd = self.steps(S)
        if kind == "ideal":
            lam_sum = (1.0 - ab) * self.lam * self.habs2 + self.sig2 * ab * self.lam + self.sig2 * (1.0 - ab)
            G = a + b * self.sig2 * np.sqrt(ab) * self.lam / lam_sum
            Q = b * (1.0 - ab) * self.lam * np.conj(self.h) / lam_sum
            M = b * self.sig2 * (1.0 - ab) / lam_sum
        else:
            # w is the per-step gain on the likelihood gradient H^T (y - H x0hat).
            if kind == "dps":
                w = 2.0 * np.asarray(zeta, dtype=float)[::-1, None]
            elif kind == "pigdm":
                r_s = np.asarray(r, dtype=float)[::-1, None]
                w = np.asarray(g, dtype=float)[::-1, None] / (r_s**2 * self.habs2 + self.sig2)
            elif kind == "none":
                w = np.zeros((len(a), 1))
            else:
                raise ValueError(f"unknown sampler {kind}")
            G = a + b * c - w * c**2 * self.habs2
            Q = w * c * np.conj(self.h)
            M = b * dd - w * c * self.habs2 * dd
        p = np.ones(self.prior.dim, dtype=complex)
        q = np.zeros(self.prior.dim, dtype=complex)
        m = np.zeros(self.prior.dim, dtype=complex)
        for step in range(len(a)):
            p = G[step] * p
            q = G[step] * q + Q[step]
            m = G[step] * m + M[step]
        return p, q, m

    def w2_realization(self, triple, y_f: np.ndarray) -> float:
        D1, D2, D3 = triple
        var_term = np.sum((self.target_std - np.abs(D1)) ** 2)
        mean_diff = (D2 - self.wiener) * y_f + (D3 - 1.0 + self.wiener * self.h) * self.mu
        return math.sqrt(var_term + np.sum(np.abs(mean_diff) ** 2))

    def w2_averaged(self, triple) -> float:
        """W2 averaged over the measurement law, on every bin."""
        D1, D2, D3 = triple
        var_term = np.sum((self.target_std - np.abs(D1)) ** 2)
        M = D2 - self.wiener
        offset = M * self.h * self.mu + (D3 - 1.0 + self.wiener * self.h) * self.mu
        trace = self.prior.dim * np.sum(np.abs(M) ** 2 * self.y_power)
        return math.sqrt(var_term + trace + np.sum(np.abs(offset) ** 2))


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _finite_positive(label: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ScoreError(f"{label}: W2 {value!r} is not finite and positive")
    return value


def _w2_of(model: Model, solution, S: int, y_f: np.ndarray) -> float:
    """Realization W2 of a WeightSolution's weights, by the benchmark's own math."""
    w = solution.weights
    if w.kind == "dps":
        triple = model.triple("dps", S, zeta=w.zeta)
    else:
        triple = model.triple("pigdm", S, g=w.g, r=w.r)
    return model.w2_realization(triple, y_f)


def score_sweep(steps, cli_seed: int, solutions) -> float:
    """Check sweep.csv; w2_opt is the geometric mean of the optimized W2.

    The optimized rows are not taken on trust: every WeightSolution the CLI
    returned is rescored here, and each row must equal the best rescored
    solution of its sampler, step count and realization.  w2_opt is the
    geometric mean of those rescored values.
    """
    (config, out), = steps
    model = Model(config)
    rows = read_rows(out / "sweep.csv")
    by_key = {(row["method"], int(row["S"]), int(row["realization"])): float(row["w2"]) for row in rows}
    expected = {f"dps-heuristic-{zp:g}" for zp in model.cfg.zeta_primes}
    expected |= {"dps-optimized", "pigdm-optimized", "ideal"}
    optimized = []
    for S in model.cfg.S_list:
        for r in range(model.cfg.n_realizations):
            found = {m for (m, s, rr) in by_key if s == S and rr == r}
            if found != expected:
                raise ScoreError(f"sweep S={S} r={r}: methods {sorted(found)}")
            for method in expected:
                _finite_positive(f"sweep {method} S={S}", by_key[(method, S, r)])
            y_f = model.observation(cli_seed, r)
            ideal = model.w2_realization(model.triple("ideal", S), y_f)
            got = by_key[("ideal", S, r)]
            if abs(got - ideal) > IDEAL_RTOL * ideal:
                raise ScoreError(f"sweep ideal S={S}: CLI {got!r}, recomputed {ideal!r}")
            best = {}
            for kind in ("dps", "pigdm"):
                mine = [
                    _w2_of(model, sol, S, y_f)
                    for sol_kind, sol_S, sol_y, sol in solutions
                    if sol_kind == kind and sol_S == S and np.array_equal(sol_y, y_f)
                ]
                if not mine:
                    raise ScoreError(f"sweep S={S} r={r}: no {kind} solution was returned")
                best[kind] = _finite_positive(f"sweep {kind} S={S} rescored", min(mine))
                got = by_key[(f"{kind}-optimized", S, r)]
                if abs(got - best[kind]) > IDEAL_RTOL * best[kind]:
                    raise ScoreError(f"sweep {kind}-optimized S={S}: CLI {got!r}, rescored {best[kind]!r}")
            # The PiGDM solve starts from the mapped DPS optimum, so it can
            # only match or improve on it.
            if best["pigdm"] > best["dps"] * (1.0 + 1e-12):
                raise ScoreError(f"sweep S={S}: pigdm-optimized {best['pigdm']!r} > dps-optimized {best['dps']!r}")
            optimized += [best["dps"], best["pigdm"]]
    return _geomean(optimized)


def score_ladder(steps, cli_seed: int, solutions) -> float:
    """Score the final-rung weights on all bins; w2_opt is their geometric mean."""
    scores = []
    for config, out in steps:
        model = Model(config)
        S = model.cfg.S_list[-1]
        rows = read_rows(out / f"weights_S{S}.csv")
        if len(rows) != S:
            raise ScoreError(f"{config.name}: {len(rows)} weight rows, expected {S}")
        cols = {key: np.array([float(row[key]) for row in rows]) for key in rows[0] if key != "s"}
        lo, hi = model.cfg.bounds
        for key, vec in cols.items():
            if not np.all(np.isfinite(vec)) or vec.min() < lo or vec.max() > hi:
                raise ScoreError(f"{config.name}: column {key} leaves the box [{lo}, {hi}]")
        if model.cfg.sampler_kind == "dps":
            triple = model.triple("dps", S, zeta=cols["zeta_r0"])
        else:
            triple = model.triple("pigdm", S, g=cols["g_r0"], r=cols["r_r0"])
        w2 = _finite_positive(f"{config.name} S={S}", model.w2_averaged(triple))
        # losses.csv holds the loss on the kept bins only, so the all-bin
        # loss of the same weights can only be larger.
        (loss_row,) = [row for row in read_rows(out / "losses.csv") if int(row["S"]) == S]
        if w2**2 < float(loss_row["loss"]) * (1.0 - 1e-9):
            raise ScoreError(f"{config.name}: all-bin loss {w2**2!r} below kept-bin loss {loss_row['loss']}")
        scores.append(w2)
    return _geomean(scores)


def _check_moments(label: str, rows: list[dict], var: np.ndarray, n_runs: int, d: int) -> None:
    """Empirical mean and variance against a zero-mean law with variance var."""
    emp_var = np.array([float(row["emp_var"]) for row in rows])
    emp_mean = np.array([complex(float(row["emp_mean_re"]), float(row["emp_mean_im"])) for row in rows])
    floor = 1e-12 * var.max()
    # Real bins (DC, Nyquist) have twice the relative variance of complex ones.
    var_tol = MC_SIGMAS * math.sqrt(2.0 / (n_runs - 1)) * var + floor
    if np.any(np.abs(emp_var - var) > var_tol):
        worst = int(np.argmax(np.abs(emp_var - var) / var_tol))
        raise ScoreError(f"{label}: emp_var[{worst}] {emp_var[worst]!r}, closed form {var[worst]!r}")
    mean_tol = MC_SIGMAS * np.sqrt(d * var / n_runs) + math.sqrt(d * floor)
    if np.any(np.abs(emp_mean) > mean_tol):
        raise ScoreError(f"{label}: emp_mean outside {MC_SIGMAS:g} standard errors of 0")


def score_simulate(steps, cli_seed: int, solutions) -> float:
    """Check every profile and statistics file; w2_opt scores the profiles.

    The workload optimizes nothing, so w2_opt is the median measurement-
    averaged W2 of the realized heuristic DPS schedules (profile means).
    """
    w2s = []
    for config, out in steps:
        model = Model(config)
        d = model.prior.dim
        for S in model.cfg.S_list:
            if model.cfg.guidance == "heuristic":
                for zp in model.cfg.zeta_primes:
                    profile = read_rows(out / f"profile_S{S}_zp{zp:g}.csv")
                    zeta = np.array([float(row["mean_zeta"]) for row in profile])
                    if len(zeta) != S or not np.all(np.isfinite(zeta)) or zeta.min() < 0:
                        raise ScoreError(f"profile S={S} zp={zp:g}: bad weights")
                    stats = read_rows(out / f"stats_S{S}_zp{zp:g}.csv")
                    emp_var = np.array([float(row["emp_var"]) for row in stats])
                    if len(emp_var) != d or not np.all(np.isfinite(emp_var)) or emp_var.min() < 0:
                        raise ScoreError(f"stats S={S} zp={zp:g}: bad variances")
                    w2s.append(_finite_positive(f"profile S={S} zp={zp:g}", model.w2_averaged(model.triple("dps", S, zeta=zeta))))
            elif model.cfg.guidance == "none":
                D1, _, D3 = model.triple("none", S)
                if np.any(model.mu != 0):
                    raise ScoreError("the moment check assumes a zero prior mean")
                stats = read_rows(out / f"stats_S{S}.csv")
                _check_moments(f"stats S={S}", stats, np.abs(D1) ** 2, model.cfg.n_runs, d)
            else:
                raise ScoreError(f"no closed form for guidance {model.cfg.guidance}")
    if not w2s:
        raise ScoreError("simulate wrote no heuristic profiles")
    return float(np.median(w2s))


SCORERS = {"sweep": score_sweep, "ladder-avg": score_ladder, "simulate": score_simulate}
