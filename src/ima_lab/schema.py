"""Checks for JSON config objects, shared by the CLI and the
``from_config`` constructors.  Each raises ValidationError, so a malformed
config exits with the CLI's validation code rather than a traceback."""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError


def require_keys(obj, allowed: dict, where: str) -> dict:
    """Strict schema: ``obj`` must be an object, unknown keys are rejected,
    and the keys whose ``allowed`` value is true must exist."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object, got {obj!r}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)} in {where}")
    missing = [k for k, required in allowed.items() if required and k not in obj]
    if missing:
        raise ValidationError(f"missing required keys {missing} in {where}")
    return obj


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
