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
    """Write rows of scalars with an optional '# key: value' comment header.

    The file's directory is made here, at the first write, so a command that
    refuses its config before writing leaves no output directory.
    """
    buf = io.StringIO()
    if header:
        for key, val in header.items():
            buf.write(f"# {key}: {val}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(buf.getvalue())


def _data_rows(path) -> list[list[str]]:
    lines = [
        ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")
    ]
    return [row for row in csv.reader(lines)]


def read_samples_csv(path) -> np.ndarray:
    """Long-format sample matrix: columns sample, index, value.

    Every (sample, index) cell of the n x d matrix must appear exactly once.
    """
    rows = _data_rows(path)[1:]
    if not rows:
        raise ValueError("no sample rows")
    for r in rows:
        if len(r) != 3:
            raise ValueError(f"row {','.join(r)!r} is not sample,index,value")
    cells = np.array([(int(r[0]), int(r[1])) for r in rows])
    if np.any(cells < 0):
        raise ValueError("sample and index must be nonnegative")
    n, d = cells.max(axis=0) + 1
    counts = np.zeros((n, d), dtype=int)
    np.add.at(counts, (cells[:, 0], cells[:, 1]), 1)
    for bad, what in [(counts > 1, "is repeated"), (counts == 0, "is missing")]:
        if bad.any():
            k, i = np.argwhere(bad)[0]
            raise ValueError(f"cell (sample {k}, index {i}) {what}")
    out = np.empty((n, d))
    out[cells[:, 0], cells[:, 1]] = [float(r[2]) for r in rows]
    return out


def prior_to_file(prior: SpectralPrior, path) -> None:
    """Structured text form: dim, inline mu_f, lambda0 list; makes the file's directory."""
    lines = [
        f"dim = {prior.dim}",
        "mu_f = " + " ".join(_fmt_complex(v) for v in prior.mu_f),
        "lambda0 = " + " ".join(_fmt(v) for v in prior.lambda0),
    ]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def _fmt_complex(v: complex) -> str:
    return f"{float(v.real)!r}{float(v.imag):+}j"


def prior_from_file(path) -> SpectralPrior:
    """Read the text form; ``mu_const = c`` may stand in for mu_f (mean c).

    Every line that is not blank or a '#' comment sets one of the keys dim,
    mu_f, lambda0 and mu_const, each at most once, mu_f and mu_const not
    both, and dim must count lambda0.
    """
    entries = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"line {line!r} is not key = value")
        if key not in ("dim", "mu_f", "lambda0", "mu_const") or key in entries:
            raise ValueError(f"{'repeated' if key in entries else 'unknown'} key {key!r}")
        entries[key] = value.strip()
    if "dim" not in entries or "lambda0" not in entries:
        raise ValueError("prior file must define dim and lambda0")
    if "mu_f" in entries and "mu_const" in entries:
        raise ValueError("mu_f and mu_const both set the mean; keep one")
    d = int(entries["dim"])
    lam = [float(v) for v in entries["lambda0"].split()]
    if d != len(lam):
        raise ValueError(f"dim = {d} but lambda0 has {len(lam)} values")
    if "mu_f" in entries:
        mu_f = [complex(v) for v in entries["mu_f"].split()]
    else:
        mu_f = np.zeros(d, dtype=complex)
        mu_f[:1] = d * float(entries.get("mu_const", "0"))  # no bin at dim = 0, which the prior refuses
    return SpectralPrior(mu_f=mu_f, lambda0=lam)


def runstats_to_csv(stats: RunStats, path, header: dict | None = None) -> None:
    mean = stats.emp_mean
    rows = zip(range(len(mean)), mean.real.tolist(), mean.imag.tolist(), stats.emp_var.tolist())
    write_csv(path, ["bin", "emp_mean_re", "emp_mean_im", "emp_var"], rows, header)


def profile_to_csv(zetas: np.ndarray, path, header: dict | None = None) -> None:
    """Per-step mean and spread of realized heuristic weights, (S, n_runs)."""
    mean, std = zetas.mean(axis=1).tolist(), zetas.std(axis=1).tolist()
    rows = zip(range(1, len(mean) + 1), mean, std)
    write_csv(path, ["step", "mean_zeta", "std_zeta"], rows, header)
