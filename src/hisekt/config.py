"""Run configuration: defaults, key=value config files, flag merging, fingerprint.

``ABLATIONS`` is the one definition of what each ablation variant changes.
``DEPLOYMENT_FIELDS`` name where and how a run talks to its cache and LLM
endpoint; they change no computed value, so neither the fingerprint nor a
report's ``config`` holds them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from . import llm, mrhin, predict, retrieval
from .errors import ConfigError, HisektError


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved pipeline configuration; every field except ``data`` has a default."""

    data: str = ""
    cache_dir: str = "cache"
    out_dir: str = "out"
    n_walks: int = mrhin.DEFAULT_NUM_WALKS
    walk_len: int = mrhin.DEFAULT_WALK_LEN
    top_k: int = 10
    top_s: int = 3
    c: float = retrieval.DEFAULT_SCALING
    window: int = predict.DEFAULT_WINDOW
    pair_sample: int = retrieval.DEFAULT_PAIR_SAMPLE
    pair_source: str = "random"
    seed: int = 7
    runs: int = 1
    score_backend: str = "formula"
    llm_backend: str = "mock"
    llm_endpoint: str = ""
    llm_model: str = "mock"
    llm_timeout: float = 30.0
    llm_max_retries: int = 3
    # concurrent http requests per LLM stage; the mock answers in the calling thread
    llm_max_in_flight: int = llm.DEFAULT_MAX_IN_FLIGHT
    variants: tuple[str, ...] = ()


FIELD_NAMES = {f.name for f in dataclasses.fields(RunConfig)}
_WHAT = {int: "an integer", float: "a number", str: "a string", tuple: "a tuple of strings"}  # by field type
DEPLOYMENT_FIELDS = ("cache_dir", "out_dir", "llm_timeout", "llm_max_retries", "llm_max_in_flight")


# variant (None: the full model) -> (Top-K selection mode, peer retrieval mode, prompt mask)
ABLATIONS: dict[str | None, tuple[str, str, frozenset[str]]] = {
    None: ("top", "similar", frozenset()),
    "msr": ("random", "similar", frozenset()),
    "msl": ("lowest", "similar", frozenset()),
    "simu": ("top", "similar", frozenset({predict.MASK_SIMU})),
    "rsimu": ("top", "random", frozenset()),
    "irt": ("top", "similar", frozenset({predict.MASK_IRT})),
}
CHOICES = {
    "pair_source": ("random", "paths"),
    "score_backend": ("formula", "llm"),
    "llm_backend": ("mock", "http"),
    "variants": tuple(v for v in ABLATIONS if v),
}


def _coerce(name: str, raw, current):
    """Coerce a raw file/flag value to the type of the dataclass field; ConfigError naming the key
    if it does not parse as one, is a bool for a number, or is a float with a fraction for an int."""
    if isinstance(raw, str):
        raw = raw.strip()
    if name == "variants":
        if isinstance(raw, str):
            return tuple(v.strip() for v in raw.split(",") if v.strip())
        return tuple(raw)
    kind = type(current)
    if kind not in (int, float):
        return str(raw)
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or isinstance(raw, bool) or (isinstance(raw, float) and value != raw and kind is int):
        raise ConfigError(f"config key {name!r}: {raw!r} is not {_WHAT[kind]}")
    return value


def load_config_file(path: str | Path) -> dict:
    """Parse a flat ``key = value`` config file; ``#`` starts a comment.  HisektError if the file
    cannot be read, ConfigError naming ``file:line`` and the key for a value that does not parse."""
    values: dict = {}
    defaults = RunConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise HisektError(f"cannot read config file {path}: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise HisektError(f"{path}:{line_no}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        key = key.replace("-", "_")
        if key not in FIELD_NAMES:
            raise HisektError(f"{path}:{line_no}: unknown config key {key!r}")
        raw = raw.strip("\"'")
        try:
            values[key] = _coerce(key, raw, getattr(defaults, key))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{line_no}: {exc}") from None
    return values


def resolve_config(file_values: Mapping | None = None, overrides: Mapping | None = None) -> RunConfig:
    """Defaults, then config file, then explicit flag overrides (flags win); runs ``check_choices``."""
    defaults = RunConfig()
    merged = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if value is None:
                continue
            if key not in FIELD_NAMES:
                raise HisektError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, value, getattr(defaults, key))
    cfg = dataclasses.replace(defaults, **merged)
    if not cfg.data:
        raise HisektError("config is missing the input data path (set data= or --data)")
    check_choices(cfg)
    return cfg


def check_choices(cfg: RunConfig) -> None:
    """Raise ``ConfigError`` unless every field holds a value of its type, every enumerated field
    a value from ``CHOICES``, no variant is listed twice, every count (the LLM retry and in-flight
    bounds included) is at least 1, the history window is not negative and the scaling ``c`` and
    the LLM timeout are finite numbers above 0."""
    for field in dataclasses.fields(RunConfig):
        value, kind = getattr(cfg, field.name), type(field.default)
        if kind is tuple:
            ok = type(value) is tuple and all(type(v) is str for v in value)
        else:  # a float field takes an int too, and no number field a bool
            ok = type(value) is kind or (kind is float and type(value) is int)
        if not ok:
            raise ConfigError(f"config field {field.name!r}: {value!r} is not {_WHAT[kind]}")
    for key, allowed in CHOICES.items():
        values = cfg.variants if key == "variants" else (getattr(cfg, key),)
        for value in values:
            if value not in allowed:
                raise ConfigError(f"config field {key!r}: {value!r} is not one of {', '.join(allowed)}")
    repeated = next((v for v in cfg.variants if cfg.variants.count(v) > 1), None)
    if repeated is not None:
        raise ConfigError(f"config field 'variants': {repeated!r} is listed more than once")
    for key in ("n_walks", "walk_len", "top_k", "top_s", "runs", "pair_sample", "llm_max_retries",
                "llm_max_in_flight"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"config field {key!r}: {getattr(cfg, key)!r} is less than 1")
    if cfg.window < 0:
        raise ConfigError(f"config field 'window': {cfg.window!r} is negative")
    for key, value in (("c", cfg.c), ("llm_timeout", cfg.llm_timeout)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"config field {key!r}: {value!r} is not a finite number above 0")


def computed_fields(cfg: RunConfig) -> dict:
    """The fields that can change what a run computes, all but ``DEPLOYMENT_FIELDS``, as JSON
    values: what :func:`fingerprint` hashes and a report's ``config`` holds."""
    payload = {key: value for key, value in dataclasses.asdict(cfg).items() if key not in DEPLOYMENT_FIELDS}
    payload["variants"] = list(payload["variants"])
    return payload


def fingerprint(cfg: RunConfig) -> str:
    """Stable hash of :func:`computed_fields`."""
    canonical = json.dumps(computed_fields(cfg), sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()[:16]
