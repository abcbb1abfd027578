"""Exception taxonomy and the one parser for numbers from outside the package.

StructuralError covers malformed inputs: bad literals, mismatched groups,
out-of-range indices.  GuardError covers refusals where an exact algorithm
would blow past its enumeration budget.  PropertyError marks a violated
postcondition, i.e. a bug, and subclasses AssertionError on purpose so test
harnesses treat it like a failed assert.

Every number handed in (int, float, Fraction, or text such as "0.25", "1/4"
or "1e-3") is read here as an exact rational and range-checked here, and each
error names its input.  A float is taken of that rational; the conversion is
correctly rounded, so it equals float(text) for every decimal text.
"""

from __future__ import annotations

import sys
from fractions import Fraction

__all__ = ["CayleySumError", "StructuralError", "GuardError", "PropertyError", "check",
           "to_fraction", "to_float", "to_int", "positive", "epsilon_in"]


class CayleySumError(Exception):
    pass


class StructuralError(CayleySumError, ValueError):
    pass


class GuardError(CayleySumError, RuntimeError):
    pass


class PropertyError(CayleySumError, AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    """Raise PropertyError unless a postcondition holds."""
    if not condition:
        raise PropertyError(message)


# Fraction builds 10^exp exactly for a text such as "1e999999999", so an
# exponent beyond int()'s default digit limit is refused before that
_MAX_EXPONENT = sys.int_info.default_max_str_digits


def _decimal_exponent(text: str) -> int:
    """The exponent of a decimal text ("1e-3" gives -3); 0 when there is none."""
    _, e, tail = text.lower().rpartition("e")
    try:
        return int(tail) if e else 0
    except ValueError:  # not a decimal exponent; Fraction rejects the text
        return 0


def to_fraction(value, name: str = "value") -> Fraction:
    """Exact rational from int, float, str, or Fraction input."""
    if isinstance(value, str) and abs(_decimal_exponent(value)) > _MAX_EXPONENT:
        raise StructuralError(
            f"{name} has a decimal exponent above {_MAX_EXPONENT} in magnitude, got {value!r}"
        )
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise StructuralError(f"{name} must be rational, got {value!r}") from exc


def to_float(value, name: str = "value") -> float:
    """The double nearest the exact rational value; never inf or nan."""
    try:
        return float(to_fraction(value, name))
    except OverflowError:  # beyond the double range, e.g. "1e400"
        raise StructuralError(f"{name} is beyond the float range, got {value!r}") from None


def to_int(value, name: str = "value") -> int:
    """int(value) for an int or integer text such as "12"."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StructuralError(f"{name} must be an integer, got {value!r}") from exc


def positive(value, name: str = "value", parse=to_fraction):
    """parse(value, name), which must be > 0; parse=to_float for a double."""
    number = parse(value, name)
    if not number > 0:
        raise StructuralError(f"{name} must be positive, got {value}")
    return number


def epsilon_in(value, hi=Fraction(1, 2), parse=to_fraction):
    """parse(value, "epsilon"), which must lie in (0, hi]."""
    eps = parse(value, "epsilon")
    if not 0 < eps <= hi:
        raise StructuralError(f"epsilon must lie in (0, {hi}], got {value}")
    return eps
