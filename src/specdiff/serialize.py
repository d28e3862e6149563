"""CSV and text-file formats for samples, priors, and results.

All writers emit deterministic bytes: floats are rendered with repr, rows in
a fixed order, and optional comment headers ('# key: value') carry run
provenance so outputs are reproducible byte for byte under a fixed seed.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .spectral import SpectralPrior
from .simulator import RunStats

__all__ = [
    "write_csv",
    "read_samples_csv",
    "prior_to_file",
    "prior_from_file",
    "runstats_to_csv",
    "profile_to_csv",
]


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, columns: list[str], rows, header: dict | None = None) -> None:
    """Write rows of scalars with an optional '# key: value' comment header."""
    buf = io.StringIO()
    if header:
        for key, val in header.items():
            buf.write(f"# {key}: {val}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    Path(path).write_text(buf.getvalue())


def _data_rows(path) -> list[list[str]]:
    lines = [
        ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")
    ]
    return [row for row in csv.reader(lines)]


def read_samples_csv(path) -> np.ndarray:
    """Long-format sample matrix: columns sample, index, value."""
    rows = _data_rows(path)[1:]
    n = max(int(r[0]) for r in rows) + 1
    d = max(int(r[1]) for r in rows) + 1
    out = np.zeros((n, d))
    for r in rows:
        out[int(r[0]), int(r[1])] = float(r[2])
    return out


def prior_to_file(prior: SpectralPrior, path) -> None:
    """Structured text form: dim, inline mu_f, lambda0 list."""
    lines = [
        f"dim = {prior.dim}",
        "mu_f = " + " ".join(_fmt_complex(v) for v in prior.mu_f),
        "lambda0 = " + " ".join(_fmt(v) for v in prior.lambda0),
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def _fmt_complex(v: complex) -> str:
    return f"{float(v.real)!r}{float(v.imag):+}j"


def prior_from_file(path) -> SpectralPrior:
    """Read the text form; ``mu_const = c`` may stand in for mu_f (mean c)."""
    entries = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    if "dim" not in entries or "lambda0" not in entries:
        raise ValueError("prior file must define dim and lambda0")
    d = int(entries["dim"])
    lam = np.array([float(v) for v in entries["lambda0"].split()])
    if "mu_f" in entries:
        mu_f = np.array([complex(v) for v in entries["mu_f"].split()])
    else:
        mu_f = np.zeros(d, dtype=complex)
        mu_f[0] = d * float(entries.get("mu_const", "0"))
    return SpectralPrior(dim=d, mu_f=mu_f, lambda0=lam)


def runstats_to_csv(stats: RunStats, path, header: dict | None = None) -> None:
    rows = [
        (i, stats.emp_mean[i].real, stats.emp_mean[i].imag, float(stats.emp_var[i]))
        for i in range(len(stats.emp_mean))
    ]
    write_csv(path, ["bin", "emp_mean_re", "emp_mean_im", "emp_var"], rows, header)


def profile_to_csv(zetas: np.ndarray, path, header: dict | None = None) -> None:
    """Per-step mean and spread of realized heuristic weights, (S, n_runs)."""
    mean, std = zetas.mean(axis=1), zetas.std(axis=1)
    rows = [(s + 1, float(mean[s]), float(std[s])) for s in range(len(mean))]
    write_csv(path, ["step", "mean_zeta", "std_zeta"], rows, header)
