"""Checks for JSON config objects, shared by the CLI and the
``from_config`` constructors.  Each raises ValidationError, so a malformed
config exits with the CLI's validation code rather than a traceback.

A config object is declared once, as a table that maps each allowed key
to ``(reader, default)``.  A reader takes ``(value, where)`` and returns
the checked value.  The default is REQUIRED, OPTIONAL (an absent key is
left out, so the callee's own default applies) or a value used as is.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

#: the default of a key that must be present
REQUIRED = object()
#: the default of a key that is left out when absent
OPTIONAL = object()


def read(obj, table: dict, where: str) -> dict:
    """The keys of config object ``obj``, each run through its reader in
    table order.  Unknown keys and absent REQUIRED keys are rejected."""
    mapping(obj, where)
    unknown = set(obj) - set(table)
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)} in {where}")
    missing = [k for k, (_, default) in table.items() if default is REQUIRED and k not in obj]
    if missing:
        raise ValidationError(f"missing required keys {missing} in {where}")
    fields = {}
    for key, (reader, default) in table.items():
        if key in obj:
            fields[key] = reader(obj[key], f"{where} {key!r}")
        elif default is not OPTIONAL:
            fields[key] = default
    return fields


def choice(obj, key: str, tables: dict, where: str) -> tuple[str, dict]:
    """(kind, fields) of a config object whose ``key`` names its kind:
    the other keys are ``read`` by the table ``tables[kind]``."""
    table = lookup(tables)(mapping(obj, where).get(key), f"{where} {key!r}")
    return obj[key], read({k: v for k, v in obj.items() if k != key}, table, where)


def lookup(choices: dict):
    """A reader of a string that names one of ``choices``; it returns the
    value the name maps to."""
    def reader(value, where: str):
        if not isinstance(value, str) or value not in choices:
            raise ValidationError(f"{where} must be one of {sorted(choices)}, got {value!r}")
        return choices[value]
    return reader


def mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be an object, got {value!r}")
    return value


def array(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be an array, got {value!r}")
    return value


def integer(value, where: str) -> int:
    """A JSON integer; an integral float up to 2**53 is taken as one."""
    if isinstance(value, float) and value.is_integer() and abs(value) <= 2.0**53:
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where} must be an integer, got {value!r}")
    return value


def real(value, where: str) -> float:
    """A finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{where} must be finite, got {value!r}")
    return value


def boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{where} must be true or false, got {value!r}")
    return value


def real_array(value, where: str) -> np.ndarray:
    """A (nested) JSON array of numbers as a float array."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where} must be an array of numbers: {exc}") from exc
