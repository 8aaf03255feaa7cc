"""Readers for every JSON input -- the run config, a potential block, the gn
sidecar, a snapshot header: each returns obj[key] as the type it stands for or
raises ConfigError naming the key.  A number is a finite JSON number, never a
bool, a string or null; json_int wants an integer written as one (as in the
files biharm writes; a hand-written config may say 512.0)."""

from __future__ import annotations

import math


class ConfigError(ValueError):
    """Configuration rejected before any compute ran."""


def _is_finite_number(val) -> bool:
    """A JSON number that is a finite float: an integer beyond float range,
    which math.isfinite cannot convert, is not one."""
    try:
        return (not isinstance(val, bool) and isinstance(val, (int, float))
                and math.isfinite(val))
    except OverflowError:
        return False


def _as_int(obj, key, default=None, minimum=None, json_int=False):
    val = obj.get(key, default)
    if val is None:
        raise ConfigError(f"missing integer field {key!r}")
    if (not _is_finite_number(val) or int(val) != val
            or (json_int and not isinstance(val, int))):
        raise ConfigError(f"field {key!r} must be an integer, got {val!r}")
    val = int(val)
    if minimum is not None and val < minimum:
        raise ConfigError(f"field {key!r} must be >= {minimum}, got {val}")
    return val


def _as_float(obj, key, default=None):
    val = obj.get(key, default)
    if val is None:
        raise ConfigError(f"missing numeric field {key!r}")
    if not _is_finite_number(val):
        raise ConfigError(f"field {key!r} must be a finite number, got {val!r}")
    return float(val)


def _as_floats(obj, key, default=None):
    """A JSON list of finite numbers, as a tuple of floats."""
    val = obj.get(key, default)
    if not (isinstance(val, list) and all(map(_is_finite_number, val))):
        raise ConfigError(f"field {key!r} must be a list of finite numbers, "
                          f"got {val!r}")
    return tuple(map(float, val))


def _as_flag(obj, key, default):
    val = obj.get(key, default)
    if not isinstance(val, bool):
        raise ConfigError(f"field {key!r} must be true or false, got {val!r}")
    return val


def _as_tolerance(obj, key, default):
    """A positive number, or None (JSON null) for a check switched off."""
    val = obj.get(key, default)
    if val is not None and (not _is_finite_number(val) or val <= 0):
        raise ConfigError(f"field {key!r} must be a positive number or null, "
                          f"got {val!r}")
    return val


def _as_str(obj, key, default):
    val = obj.get(key, default)
    if not isinstance(val, str):
        raise ConfigError(f"field {key!r} must be a string, got {val!r}")
    return val


def _block(obj, key, known, where=""):
    """obj[key], or {} when absent, as an object holding only known keys;
    where is the dotted path of obj, for the messages."""
    block = obj.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{where}{key} must be a JSON object, got "
                          f"{type(block).__name__}")
    extra = set(block) - known
    if extra:
        raise ConfigError(f"unknown {where}{key} fields {sorted(extra)}")
    return block
