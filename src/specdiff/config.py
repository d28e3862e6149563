"""Flat key = value experiment configuration files.

The format is INI-style sections of scalar keys, chosen so configs diff and
hash cleanly; the sha256 prefix of the raw file bytes identifies a run in
every CSV the tools emit.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "config_hash"]


class ConfigError(ValueError):
    """Raised for unreadable, unknown, or inconsistent configuration keys."""


_KNOWN_KEYS = {
    "experiment": {"name", "seed", "out"},
    "prior": {"d", "l", "mu_const", "file"},
    "degradation": {"V", "sigma_y"},
    "schedule": {"T", "S"},
    "sampler": {
        "kind",
        "weight_source",
        "zeta_prime",
        "bounds",
        "max_iters",
        "f_tol",
        "ladder",
        "keep_dims",
    },
    "run": {"n_realizations", "n_runs", "guidance"},
    "estimate": {"samples"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    seed: int
    out: str
    prior_d: int
    prior_l: float
    prior_mu_const: float
    prior_file: str | None
    V: float
    sigma_y: float
    T: int
    S_list: tuple[int, ...]
    sampler_kind: str
    weight_source: str
    zeta_primes: tuple[float, ...]
    bounds: tuple[float, float]
    max_iters: int
    f_tol: float
    ladder: tuple[int, ...] | None
    keep_dims: int | None
    n_realizations: int
    n_runs: int
    guidance: str
    samples_file: str | None
    config_hash: str = field(default="", compare=False)


def config_hash(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:12]


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.replace(",", " ").split())


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.replace(",", " ").split())


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = path.read_text()
    parser = configparser.ConfigParser()
    parser.optionxform = str
    try:
        parser.read_string(raw)
    except configparser.Error as exc:
        raise ConfigError(f"unreadable config: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section: [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key: {section}.{key}")

    def get(section: str, key: str, default=None):
        if parser.has_option(section, key):
            return parser.get(section, key)
        return default

    try:
        kind = get("sampler", "kind", "dps").lower()
        if kind not in ("dps", "pigdm"):
            raise ConfigError(f"invalid value: sampler.kind = {kind}")
        source = get("sampler", "weight_source", "optimize-k1").lower()
        known_sources = {
            "heuristic",
            "optimize-k1",
            "optimize-averaged",
            "pigdm-heuristic",
            "ideal",
        }
        if source not in known_sources:
            raise ConfigError(f"invalid value: sampler.weight_source = {source}")
        guidance = get("run", "guidance", "none").lower()
        if guidance not in ("none", "optimal", "heuristic"):
            raise ConfigError(f"invalid value: run.guidance = {guidance}")
        bounds_raw = _float_list(get("sampler", "bounds", "-5, 5"))
        if len(bounds_raw) != 2:
            raise ConfigError("sampler.bounds must hold two values")
        ladder_raw = get("sampler", "ladder")
        keep_raw = get("sampler", "keep_dims")
        cfg = ExperimentConfig(
            name=get("experiment", "name", "run"),
            seed=int(get("experiment", "seed", "0")),
            out=get("experiment", "out", "."),
            prior_d=int(get("prior", "d", "50")),
            prior_l=float(get("prior", "l", "0.05")),
            prior_mu_const=float(get("prior", "mu_const", "0.0")),
            prior_file=get("prior", "file"),
            V=float(get("degradation", "V", "0.5")),
            sigma_y=float(get("degradation", "sigma_y", "0.1")),
            T=int(get("schedule", "T", "1000")),
            S_list=_int_list(get("schedule", "S", "70")),
            sampler_kind=kind,
            weight_source=source,
            zeta_primes=_float_list(get("sampler", "zeta_prime", "0.1 0.3 0.5 0.7 1.0")),
            bounds=(bounds_raw[0], bounds_raw[1]),
            max_iters=int(get("sampler", "max_iters", "2500")),
            f_tol=float(get("sampler", "f_tol", "1e-6")),
            ladder=_int_list(ladder_raw) if ladder_raw else None,
            keep_dims=int(keep_raw) if keep_raw else None,
            n_realizations=int(get("run", "n_realizations", "5")),
            n_runs=int(get("run", "n_runs", "100")),
            guidance=guidance,
            samples_file=get("estimate", "samples"),
            config_hash=config_hash(raw),
        )
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    if not cfg.S_list:
        raise ConfigError("schedule.S must list at least one step count")
    if not cfg.zeta_primes:
        raise ConfigError("sampler.zeta_prime must list at least one value")
    return cfg
