"""Run configuration: a TOML file of top-level keys, read by ``tomllib``.

    # tap5 alone, on narrow stages
    fusion_mode = "tap5"
    stage_channels = [4, 4, 8, 8, 8]
    learning_rate = 0.0025
    lr_drop = true

Each key takes a value of its default's type: an integer for an int, an
integer or finite float for a float, an array of those for a tuple, a quoted
string for a str and ``true``/``false`` for a bool.  Malformed TOML, unknown
keys, tables, dates, mistyped and out-of-range values are rejected when a
config is built, before any output file is written.  Values given on the
command line replace the file's values before that one build, so a flag can
replace an out-of-range file value.
"""

from __future__ import annotations

import math
import sys
import tomllib
from dataclasses import dataclass, fields

from .evaluation import EvalConfig
from .rpn import ConfigError, FieldError
from .training import TrainConfig


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
        # each range check raises a FieldError, a ConfigError naming its field
        for cls in (TrainConfig, EvalConfig):
            cls.__post_init__(self)


# what a key of each default's type takes, in TOML's words
_TAKES = {bool: "true or false", int: "an integer", float: "a number", str: "a quoted string", tuple: "an array"}


def _typed(where: str, value, default):
    """``value`` in ``default``'s type, or ``ConfigError`` naming ``where``.
    Types are compared with ``is``, since ``true`` is an instance of int."""
    kind = type(default)
    if kind is tuple and type(value) is list:
        return tuple(_typed(where, v, default[0]) for v in value)
    if kind is float and type(value) is int:
        if abs(value) > sys.float_info.max:
            raise ConfigError(f"{where}: {value} is too large for a float")
        value = float(value)
    if type(value) is not kind:
        raise ConfigError(f"{where}: {value!r} is not {_TAKES[kind]}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{where}: {value!r} is not finite")
    return value


def parse_run_config(text: str, source: str = "<config>", **given) -> RunConfig:
    """The ``RunConfig`` of TOML ``text``'s values with ``given`` replacing them.
    An out-of-range value is named as a mistyped one is, ``{source}: config
    key {field}:``, when it is the file's; a value from ``given`` keeps the
    message of the field's range check."""
    defaults = {f.name: f.default for f in fields(RunConfig)}
    try:
        table = tomllib.loads(text)
    except tomllib.TOMLDecodeError as e:
        raise ConfigError(f"{source}: {e} (config files are TOML: quote strings, write tuples as [a, b])") from None
    except RecursionError:
        raise ConfigError(f"{source}: values are nested too deeply") from None
    values = {}
    for key, value in table.items():
        if key not in defaults:
            raise ConfigError(f"{source}: unknown key {key!r}")
        values[key] = _typed(f"{source}: config key {key}", value, defaults[key])
    try:
        return RunConfig(**{**values, **given})
    except FieldError as e:
        if e.field not in values.keys() - given.keys():
            raise
        raise ConfigError(f"{source}: config key {e.field}: {e.detail}") from None
