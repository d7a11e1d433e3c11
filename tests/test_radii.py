"""Radius arithmetic: exact rationals plus a single infinite value.

Laws under test:
1. Ordering: the infinite radius, written INF, exceeds every finite
   radius, from both sides.
2. Absorption: infinity + finite = infinity.
3. Parsing accepts ints, Fractions, "p/q" strings, [num, den] pairs, "inf";
   rejects floats, bools, negatives, pairs of non-integers or of other
   than two entries, zero denominators and other objects, each as a
   ValueError. Scaling the infinite radius by 0 is a ValueError too.
4. JSON round trip is the identity on canonical values.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shiftcolor.radii import (
    INF,
    Infinity,
    as_int,
    as_radius,
    parse_fraction,
    radius_ceil,
    radius_floor,
    radius_to_json,
)


class TestInfinity:
    def test_singleton(self):
        assert Infinity() is INF
        assert repr(INF) == "INF"

    def test_dominates_ints(self):
        assert INF > 10**9
        assert 10**9 < INF
        assert not (INF < 5)
        assert INF >= INF and INF <= INF and INF == INF

    def test_dominates_fractions(self):
        assert INF > Fraction(7, 2)
        assert Fraction(7, 2) < INF

    @given(st.integers(min_value=0, max_value=10**6))
    def test_absorbs_addition(self, n):
        assert INF + n is INF
        assert n + INF is INF

    def test_multiplication_absorbs(self):
        assert 2 * INF is INF
        assert INF * 3 is INF

    def test_scaling_by_zero_is_refused(self):
        with pytest.raises(ValueError, match="^cannot scale an infinite radius by 0$"):
            INF * 0


class TestAsRadius:
    def test_int_passthrough(self):
        assert as_radius(5) == 5
        assert isinstance(as_radius(5), int)

    def test_fraction_normalizes_to_int(self):
        assert as_radius(Fraction(6, 2)) == 3
        assert isinstance(as_radius(Fraction(6, 2)), int)

    def test_fraction_kept_when_proper(self):
        r = as_radius(Fraction(7, 2))
        assert r == Fraction(7, 2)

    def test_string_forms(self):
        assert as_radius("inf") is INF
        assert as_radius("7/2") == Fraction(7, 2)

    def test_pair_form(self):
        assert as_radius([7, 2]) == Fraction(7, 2)

    def test_rejects_float(self):
        with pytest.raises((TypeError, ValueError)):
            as_radius(1.5)

    def test_rejects_bool(self):
        with pytest.raises((TypeError, ValueError)):
            as_radius(True)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            as_radius(-1)
        with pytest.raises(ValueError):
            as_radius(Fraction(-1, 2))

    @pytest.mark.parametrize("value", ["1/0", " 3/0 ", [1, 0], (0, 0)])
    def test_zero_denominator_is_a_value_error(self, value):
        """Not a ZeroDivisionError, which the command line would report as
        a crash instead of a usage error."""
        with pytest.raises(ValueError, match="zero denominator"):
            as_radius(value)

    @pytest.mark.parametrize(
        "pair", [[1.5, 2], [2, 2.0], ["1", 2], [True, 2], [1, False], [None, 1]]
    )
    def test_pair_entries_must_be_integers(self, pair):
        with pytest.raises(ValueError, match="radius pair entry must be an integer"):
            as_radius(pair)

    @pytest.mark.parametrize(
        "value, message",
        [([1, 2, 3], "radius pair must have two entries"), (object(), "cannot interpret <object")],
        ids=["three-entries", "object"],
    )
    def test_other_forms_are_refused(self, value, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            as_radius(value)


class TestStrictParsers:
    @pytest.mark.parametrize("value", [2.9, 2.0, True, "3", None, float("inf")])
    def test_as_int_refuses_non_integers(self, value):
        with pytest.raises(ValueError, match="^k must be an integer"):
            as_int(value, "k")

    def test_as_int_keeps_integers(self):
        assert as_int(-7, "k") == -7
        assert as_int(10**30, "k") == 10**30
        assert type(as_int(np.int64(4), "k")) is int

    def test_parse_fraction(self):
        assert parse_fraction("3/6") == Fraction(1, 2)
        with pytest.raises(ValueError, match="zero denominator"):
            parse_fraction("1/0")
        with pytest.raises(ValueError):
            parse_fraction("half")


class TestFloorCeil:
    def test_int_fixed_points(self):
        assert radius_floor(4) == 4
        assert radius_ceil(4) == 4

    def test_fraction(self):
        assert radius_floor(Fraction(7, 2)) == 3
        assert radius_ceil(Fraction(7, 2)) == 4

    def test_infinite_rejected(self):
        with pytest.raises(ValueError):
            radius_floor(INF)
        with pytest.raises(ValueError):
            radius_ceil(INF)

    @given(st.fractions(min_value=0, max_value=1000))
    def test_floor_le_ceil(self, q):
        assert radius_floor(q) <= q <= radius_ceil(q)


class TestJson:
    @given(st.one_of(st.integers(min_value=0, max_value=10**6), st.fractions(min_value=0, max_value=100)))
    def test_roundtrip_finite(self, r):
        r = as_radius(Fraction(r))
        assert as_radius(radius_to_json(r)) == r

    def test_roundtrip_inf(self):
        assert as_radius(radius_to_json(INF)) is INF

    def test_encodings(self):
        assert radius_to_json(3) == 3
        assert radius_to_json(Fraction(7, 2)) == "7/2"
        assert radius_to_json(Fraction(6, 2)) == 3  # an integral Fraction no parser makes
        assert radius_to_json(INF) == "inf"
