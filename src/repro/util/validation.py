"""Small argument-validation helpers used across the public API."""

from __future__ import annotations

import math
import numbers
from typing import Any

__all__ = ["check_positive", "check_probability", "check_in_range", "require",
           "is_int", "is_number", "is_finite_real"]


def is_int(x: Any) -> bool:
    """An ``int`` (``True``/``False`` are not)."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_number(x: Any) -> bool:
    """A real number, infinities and NaN included (booleans are not)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def is_finite_real(x: Any) -> bool:
    """A finite real number (booleans are not)."""
    # an int past the float range is finite; math.isfinite would overflow
    return is_number(x) and (isinstance(x, numbers.Integral)
                             or math.isfinite(x))


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` when ``condition`` is false."""
    if not condition:
        raise ValueError(message)


def check_positive(name: str, value: float, strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative when not strict)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_in_range(name: str, value: Any, lo: Any, hi: Any) -> Any:
    """Validate ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value
