"""Flat key = value experiment configuration files.

The format is INI-style sections of scalar keys, chosen so configs diff and
hash cleanly; the sha256 prefix of the raw file bytes identifies a run in
every CSV the tools emit.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, fields
from pathlib import Path

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "config_hash"]


class ConfigError(ValueError):
    """Raised for unreadable, unknown, or inconsistent configuration keys."""


# A parser reads the raw text of the key "section.key" it is given.  It raises
# ConfigError for a value it rejects; any other ValueError becomes "invalid
# config value".


def _plain(cast):
    return lambda key, raw: cast(raw)


def _optional(parse):
    """parse(key, raw), or None for an empty value."""
    return lambda key, raw: parse(key, raw) if raw else None


def _at_least(cast, low, message: str):
    def parse(key: str, raw: str):
        value = cast(raw)
        if not low <= value < float("inf"):  # NaN fails too
            raise ConfigError(f"{key}: {message}")
        return value

    return parse


def _choice(*choices: str):
    def parse(key: str, raw: str) -> str:
        value = raw.lower()
        if value not in choices:
            raise ConfigError(f"invalid value: {key} = {value}")
        return value

    parse.choices = choices
    return parse


def _list(cast, size_ok=None, message: str = "", unique: bool = False):
    """Comma- or space-separated values; size_ok(count) must hold, and with
    unique no value may appear twice."""

    def parse(key: str, raw: str) -> tuple:
        values = tuple(cast(v) for v in raw.replace(",", " ").split())
        if size_ok is not None and not size_ok(len(values)):
            raise ConfigError(f"{key} {message}")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if unique and repeated:
            raise ConfigError(f"{key}: repeated value {repeated[0]}")
        return values

    return parse


def _key(key: str, parse, default: str | None = None):
    """A field set by config key "section.key", read by parse; a field whose
    default is None stays None when the config does not set its key."""
    return field(metadata={"key": key, "parse": parse, "default": default})


@dataclass(frozen=True)
class ExperimentConfig:
    """A loaded config.  Its fields are the one table of the keys a config
    may set: each field's key, parser and default raw value."""

    name: str = _key("experiment.name", _plain(str), "run")
    seed: int = _key("experiment.seed", _plain(int), "0")
    out: str = _key("experiment.out", _plain(str), ".")
    prior_d: int = _key("prior.d", _plain(int), "50")
    prior_l: float = _key("prior.l", _plain(float), "0.05")
    prior_mu_const: float = _key("prior.mu_const", _plain(float), "0.0")
    prior_file: str | None = _key("prior.file", _plain(str))
    V: float = _key("degradation.V", _plain(float), "0.5")
    sigma_y: float = _key("degradation.sigma_y", _at_least(float, 0, "must be finite and >= 0"), "0.1")
    T: int = _key("schedule.T", _plain(int), "1000")
    S_list: tuple[int, ...] = _key(
        "schedule.S", _list(int, bool, "must list at least one step count", unique=True), "70"
    )
    sampler_kind: str = _key("sampler.kind", _choice("dps", "pigdm"), "dps")
    weight_source: str = _key(
        "sampler.weight_source",
        _choice("heuristic", "optimize-k1", "optimize-averaged", "pigdm-heuristic", "ideal"),
        "optimize-k1",
    )
    zeta_primes: tuple[float, ...] = _key(
        "sampler.zeta_prime",
        _list(float, bool, "must list at least one value", unique=True),
        "0.1 0.3 0.5 0.7 1.0",
    )
    bounds: tuple[float, float] = _key(
        "sampler.bounds", _list(float, lambda n: n == 2, "must hold two values"), "-5, 5"
    )
    max_iters: int = _key("sampler.max_iters", _plain(int), "2500")
    f_tol: float = _key("sampler.f_tol", _plain(float), "1e-6")
    ladder: tuple[int, ...] | None = _key("sampler.ladder", _optional(_list(int)))
    keep_dims: int | None = _key("sampler.keep_dims", _optional(_plain(int)))
    n_realizations: int = _key("run.n_realizations", _at_least(int, 1, "must be at least 1"), "5")
    n_runs: int = _key("run.n_runs", _at_least(int, 1, "must be positive"), "100")
    guidance: str = _key("run.guidance", _choice("none", "optimal", "heuristic"), "none")
    samples_file: str | None = _key("estimate.samples", _plain(str))
    config_hash: str = field(default="", compare=False)


def config_hash(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:12]


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

    keys = {f.metadata["key"]: f for f in fields(ExperimentConfig) if f.metadata}
    sections = {key.split(".")[0] for key in keys}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section: [{section}]")
        for key in parser[section]:
            if f"{section}.{key}" not in keys:
                raise ConfigError(f"unknown key: {section}.{key}")

    values = {}
    try:
        for key, f in keys.items():
            text = parser.get(*key.split("."), fallback=f.metadata["default"])
            values[f.name] = None if text is None else f.metadata["parse"](key, text)
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    return ExperimentConfig(**values, config_hash=config_hash(raw))
