"""Flat key=value run configuration with '#' comments.

Unknown keys, keys set twice and out-of-range values are rejected when a
config is built, before any output file is written.  Values given on the
command line replace the file's values before that one build, so a flag can
replace an out-of-range file value.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .evaluation import EvalConfig
from .training import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig(TrainConfig, EvalConfig):
    """Every training and evaluation field (and so every model and detection
    field), plus the keys below.  It is passed whole wherever one of its
    bases is expected; each consumer reads only its own fields."""

    # paths (may also come from CLI flags, which win)
    data_dir: str = ""
    out_dir: str = ""
    checkpoint: str = ""
    annotations: str = ""
    detections: str = ""

    def __post_init__(self):
        try:
            for cls in (TrainConfig, EvalConfig):
                cls.__post_init__(self)
        except ValueError as e:
            raise ConfigError(str(e)) from None


def _parse_value(key: str, raw: str, default):
    kind = type(default)
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            value = float(raw)
        elif kind is tuple:
            value = tuple(type(default[0])(v) for v in raw.split(",") if v.strip() != "")
        else:
            return raw
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind.__name__}") from None
    if not np.isfinite(value).all():
        raise ConfigError(f"config key {key}: {raw!r} is not finite")
    return value


def parse_run_config(text: str, source: str = "<config>", **given) -> RunConfig:
    """The ``RunConfig`` of ``text``'s values with ``given`` replacing them."""
    defaults = {f.name: f.default for f in fields(RunConfig)}
    values = {}
    set_at: dict[str, int] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in defaults:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in set_at:
            raise ConfigError(f"{source}:{lineno}: key {key!r} is set again, first at line {set_at[key]}")
        set_at[key] = lineno
        values[key] = _parse_value(key, raw, defaults[key])
    return RunConfig(**{**values, **given})
