"""Finite partial colorings and the shift action.

Laws under test:
1. Construction validates elements and colors and refuses conflicting
   duplicate assignments.
2. Shift: dom(g . phi) = dom(phi) shifted, values follow; the action law
   shift(shift(phi, g), d) = shift(phi, d*g) holds exactly (left action);
   the shifted entries, built without a second validation, are valid.
3. Window / restrict / union behave as set operations on graphs of maps.
4. JSON round trip is the identity; canonical keys are order-insensitive.
"""

import pytest
from hypothesis import given, settings, strategies as st

from shiftcolor.groups import FreeAbelian, FreeGroup
from shiftcolor.patterns import PartialColoring, shift, truncated_window
from shiftcolor.radii import INF

Z1 = FreeAbelian(1)
F2 = FreeGroup(2)


def f2_word():
    return st.lists(st.sampled_from(["a", "b", "A", "B"]), max_size=6).map(_reduce)


def _reduce(gens):
    w = F2.identity()
    for s in gens:
        w = F2.mul(s, w)
    return w


def z1_patterns():
    return st.dictionaries(
        st.integers(-8, 8), st.integers(0, 5), max_size=5
    ).map(lambda d: PartialColoring(Z1, d))


def f2_patterns():
    return st.dictionaries(f2_word(), st.integers(0, 5), max_size=4).map(
        lambda d: PartialColoring(F2, d)
    )


class TestConstruction:
    def test_empty(self):
        phi = PartialColoring(Z1, {})
        assert len(phi) == 0 and not phi

    def test_validates_elements(self):
        with pytest.raises(ValueError):
            PartialColoring(Z1, {"x": 0})

    def test_validates_colors(self):
        with pytest.raises(ValueError):
            PartialColoring(Z1, {0: -1})
        with pytest.raises(ValueError):
            PartialColoring(Z1, {0: True})
        with pytest.raises(ValueError):
            PartialColoring(Z1, {0: (1, 2, 3)})

    def test_product_colors_allowed(self):
        phi = PartialColoring(Z1, {0: (2, 1)})
        assert phi[0] == (2, 1)

    def test_lookup(self):
        phi = PartialColoring(Z1, {0: 1, 3: 2})
        assert 0 in phi and 1 not in phi
        assert phi[3] == 2
        assert phi.get(1) is None
        assert phi.colors_used() == {1, 2}


class TestShift:
    def test_frozen_example(self):
        # moving by 3 relocates the entry at 0 to -3
        phi = PartialColoring(Z1, {0: 5})
        assert dict(shift(phi, 3).entries) == {-3: 5}

    @given(phi=z1_patterns(), g=st.integers(-5, 5), d=st.integers(-5, 5))
    def test_action_law_z1(self, phi, g, d):
        """shift(shift(phi, g), d) == shift(phi, d*g)."""
        assert shift(shift(phi, g), d) == shift(phi, Z1.mul(d, g))

    @settings(max_examples=60)
    @given(phi=f2_patterns(), g=f2_word(), d=f2_word())
    def test_action_law_f2(self, phi, g, d):
        assert shift(shift(phi, g), d) == shift(phi, F2.mul(d, g))

    @given(phi=z1_patterns(), g=st.integers(-5, 5))
    def test_identity_and_inverse(self, phi, g):
        assert shift(phi, Z1.identity()) == phi
        assert shift(shift(phi, g), Z1.inv(g)) == phi

    @settings(max_examples=60)
    @given(phi=f2_patterns(), g=f2_word())
    def test_shifted_entries_pass_validation(self, phi, g):
        """shift builds its result without validating it again; the same
        entries pass the validating constructor unchanged."""
        moved = shift(phi, g)
        assert PartialColoring(F2, moved.entries) == moved

    def test_validating_constructor_still_rejects(self):
        with pytest.raises(ValueError, match="not reduced"):
            PartialColoring(F2, {"aA": 0})
        with pytest.raises(ValueError):
            PartialColoring(F2, {"ab": -1})
        with pytest.raises(ValueError):
            PartialColoring(F2, {"ab": True})
        with pytest.raises(ValueError, match="not reduced"):
            shift(PartialColoring(F2, {"a": 0}), "bB")

    @given(phi=z1_patterns(), g=st.integers(-5, 5))
    def test_preserves_size_and_colors(self, phi, g):
        moved = shift(phi, g)
        assert len(moved) == len(phi)
        assert moved.colors_used() == phi.colors_used()


class TestWindowRestrict:
    def test_window(self):
        phi = PartialColoring(Z1, {0: 1, 2: 2, 5: 0})
        win = phi.window(0, 2)
        assert dict(win.entries) == {0: 1, 2: 2}

    def test_window_infinite_radius_is_whole(self):
        phi = PartialColoring(Z1, {0: 1, 9: 2})
        assert phi.window(0, INF) == phi

    def test_restrict(self):
        phi = PartialColoring(Z1, {0: 1, 2: 2})
        assert dict(phi.restrict([0, 7]).entries) == {0: 1}

    def test_union_disjoint(self):
        a = PartialColoring(Z1, {0: 1})
        b = PartialColoring(Z1, {3: 2})
        assert dict(a.union(b).entries) == {0: 1, 3: 2}

    def test_union_agreeing_overlap(self):
        a = PartialColoring(Z1, {0: 1, 1: 2})
        b = PartialColoring(Z1, {1: 2})
        assert a.union(b) == a

    def test_union_conflict_raises(self):
        a = PartialColoring(Z1, {0: 1})
        b = PartialColoring(Z1, {0: 2})
        with pytest.raises(ValueError):
            a.union(b)

    def test_domain_dist(self):
        a = PartialColoring(Z1, {0: 1})
        b = PartialColoring(Z1, {4: 1})
        assert a.domain_dist(b) == 4
        assert a.domain_dist(PartialColoring(Z1, {})) is INF


class TestTruncatedWindow:
    def test_filters_by_height_and_distance(self):
        phi = PartialColoring(
            Z1, {0: (2, 0), 1: (1, 1), 4: (2, 2), 9: (1, 0)}
        )
        win = truncated_window(phi, 0, 6, 2)
        # distance <= 6 keeps 0,1,4; height <= 2 keeps all of those
        assert sorted(win.domain()) == [0, 1, 4]
        win2 = truncated_window(phi, 0, 6, 1)
        assert sorted(win2.domain()) == [1]

    def test_requires_product_colors(self):
        phi = PartialColoring(Z1, {0: 3})
        with pytest.raises(ValueError):
            truncated_window(phi, 0, 2, 1)


class TestJsonAndKeys:
    @given(phi=z1_patterns())
    def test_roundtrip_z1(self, phi):
        assert PartialColoring.from_json(phi.to_json()) == phi

    @settings(max_examples=40)
    @given(phi=f2_patterns())
    def test_roundtrip_f2(self, phi):
        assert PartialColoring.from_json(phi.to_json()) == phi

    def test_entries_sorted_canonically(self):
        phi = PartialColoring(Z1, {3: 0, -1: 1, 0: 2})
        assert [e for e, _c in phi.to_json()["entries"]] == [-1, 0, 3]

    @given(phi=z1_patterns(), g=st.integers(-3, 3))
    def test_canonical_key_detects_equality(self, phi, g):
        assert (phi.canonical_key() == shift(phi, g).canonical_key()) == (
            phi == shift(phi, g)
        )
