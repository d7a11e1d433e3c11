"""Exact radius values: nonnegative rationals plus a single infinity sentinel.

Distances in this package are integers (word metrics), while radius
parameters may be proper rationals (e.g. 1/2). All comparisons are exact;
floats are never involved. The empty-set conventions used throughout are
``min over nothing = INF`` and ``sup over nothing = 0``.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Union


class Infinity:
    """The single infinite radius. Compares above every finite value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash("shiftcolor-infinite-radius")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, Infinity)

    def __gt__(self, other):
        return not isinstance(other, Infinity)

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        if other > 0:
            return self
        raise ValueError(f"cannot scale an infinite radius by {other!r}")

    __rmul__ = __mul__


INF = Infinity()

Radius = Union[int, Fraction, Infinity]


def as_int(value, name: str) -> int:
    """value as an int, refusing bools, floats and strings, so that a JSON
    2.9, true or "3" is an error naming ``name`` instead of a coerced int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def parse_fraction(text: str) -> Fraction:
    """Fraction(text), with a zero denominator refused as a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def as_radius(value) -> Radius:
    """Coerce ``value`` to a Radius.

    Accepts ints, Fractions, the INF sentinel, the string "inf", strings of
    the form "p/q" or "n", and two-element [numerator, denominator] lists of
    integers. A zero denominator is a ValueError.
    """
    if isinstance(value, Infinity):
        return INF
    if isinstance(value, bool):
        raise ValueError("radius must be a number, not a bool")
    if isinstance(value, str):
        if value.strip().lower() == "inf":
            return INF
        value = parse_fraction(value)
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError(f"radius pair must have two entries, got {value!r}")
        num, den = (as_int(v, "each radius pair entry") for v in value)
        if den == 0:
            raise ValueError(f"radius pair {value!r} has a zero denominator")
        value = Fraction(num, den)
    if isinstance(value, float):
        raise ValueError("float radii are not accepted; pass an int, Fraction, or 'p/q' string")
    if isinstance(value, Fraction):
        if value < 0:
            raise ValueError(f"radius must be nonnegative, got {value}")
        return int(value) if value.denominator == 1 else value
    if isinstance(value, int):
        if value < 0:
            raise ValueError(f"radius must be nonnegative, got {value}")
        return value
    raise ValueError(f"cannot interpret {value!r} as a radius")


def radius_floor(r: Radius) -> int:
    """Largest integer ≤ r. Rejects INF (no finite floor)."""
    if isinstance(r, Infinity):
        raise ValueError("cannot take the floor of an infinite radius")
    return math.floor(r)


def radius_ceil(r: Radius) -> int:
    if isinstance(r, Infinity):
        raise ValueError("cannot take the ceiling of an infinite radius")
    return math.ceil(r)


def radius_to_json(r: Radius):
    """JSON form: int when integral, "p/q" for proper rationals, "inf"."""
    if isinstance(r, Infinity):
        return "inf"
    if isinstance(r, Fraction):
        if r.denominator == 1:
            return int(r)
        return f"{r.numerator}/{r.denominator}"
    return int(r)
