"""Finite partial colorings and the shift action.

Laws under test:
1. Construction validates elements and colors and refuses conflicting
   duplicate assignments; a pattern is immutable, and its repr lists its
   entries in canonical order.
2. Shift: dom(g . phi) = dom(phi) shifted, values follow; the action law
   shift(shift(phi, g), d) = shift(phi, d*g) holds exactly (left action);
   the shifted entries, built without a second validation, are valid;
   ``shift`` still rejects a non-canonical gamma.
3. Window / restrict / union behave as set operations on graphs of maps;
   a union across groups is refused.
4. JSON round trip is the identity; canonical keys are order-insensitive.
5. Validation happens once, at the boundary: every derived pattern
   (``with_entry``, ``restrict``, ``remove``, ``union``, ``window``,
   ``truncated_window``, ``project``, ``shift``, ``empty``) equals the
   validating constructor over its entries and over the entries the
   validating code built, and ``with_entry`` and ``shift`` still refuse a
   bad element, color or gamma.
6. With the element and color checks made to fail everywhere but the
   public methods that take caller input (``with_entry``, ``shift``,
   ``IdealSpec.extend_at``), every kernel that derives patterns gives the
   report it gives unpatched.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from shiftcolor import patterns
from shiftcolor.groups import FreeAbelian, FreeGroup, identity_ball
from shiftcolor.ideals import IdealSpec, ProperColoring, grow_random_member, ideal_axioms_check
from shiftcolor.oracles import extension_oracle
from shiftcolor.patterns import PartialColoring, shift, truncated_window
from shiftcolor.radii import INF
from shiftcolor.reduction import (
    ReducedIdeal,
    check_join,
    check_local,
    decompose,
    derived_join_from_local,
    project,
    reduced_contains,
)
from shiftcolor.reports import to_jsonable
from shiftcolor.simulate import extract_patterns, sparse_run

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
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

    def test_refuses_two_colors_at_one_element(self):
        with pytest.raises(ValueError, match="^element 0 is assigned two colors$"):
            PartialColoring(Z1, [(0, 1), (0, 2)])
        assert PartialColoring(Z1, [(0, 1), (0, 1)]).entries == {0: 1}

    def test_immutable(self):
        phi = PartialColoring(Z1, {0: 1})
        with pytest.raises(AttributeError, match="^PartialColoring is immutable$"):
            phi.entries = {}
        assert phi.entries == {0: 1}

    def test_product_colors_allowed(self):
        phi = PartialColoring(Z1, {0: (2, 1)})
        assert phi[0] == (2, 1)

    def test_repr_lists_entries_in_canonical_order(self):
        words = PartialColoring(F2, {"a": 1, "": 0, "B": (2, 1)})
        assert repr(words) == "PartialColoring(F_2, {'': 0, 'B': (2, 1), 'a': 1})"
        points = PartialColoring(FreeAbelian(2), {(0, 1): 1, (0, 0): 0})
        assert repr(points) == "PartialColoring(Z^2, {(0, 0): 0, (0, 1): 1})"

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

    @settings(max_examples=60)
    @given(phi=f2_patterns(), g=f2_word())
    def test_public_shift_validates_gamma_private_path_agrees(self, phi, g):
        """``shift`` checks gamma before shifting."""
        for bad in (g + "aA", "Bb" + g, g + "c", 3):
            with pytest.raises(ValueError):
                shift(phi, bad)

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

    def test_union_across_groups_raises(self):
        with pytest.raises(ValueError, match="^cannot union patterns over different groups$"):
            PartialColoring(Z1, {0: 1}).union(PartialColoring(F2, {}))

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


def elements(g):
    if g is Z1:
        return st.integers(-6, 6)
    if g is Z2:
        return st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    return f2_word()


def colors(product):
    n = st.integers(0, 4)
    return st.tuples(n, n) if product else n


def patterns_over(g, product):
    return st.dictionaries(elements(g), colors(product), max_size=6).map(
        lambda d: PartialColoring(g, d)
    )


BAD_ELEMENTS = {
    Z1: ["x", 1.5, True, (0,), None],
    Z2: [(0,), [0, 0], (0.5, 0), (True, 0), ("1", 0), 0],
    F2: ["aA", "c", "Bb", 3, None],
}
BAD_COLORS = [-1, True, 1.5, "1", (1,), (-1, 0), (0, True), [0, 0, 0], None]


class TestDerivedPatternsAgreeWithValidation:
    """Law 5: the derived patterns skip validation, so each is checked here
    against the validating constructor: over its own entries (they are
    valid) and over the entries the validating code computed."""

    @staticmethod
    def agree(result, reference_entries):
        g = result.group
        assert PartialColoring(g, result.entries) == result
        assert PartialColoring(g, reference_entries) == result

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), g=st.sampled_from([Z1, Z2, F2]), product=st.booleans())
    def test_each_derived_operation(self, data, g, product):
        phi = data.draw(patterns_over(g, product))
        psi = data.draw(patterns_over(g, product))
        e = data.draw(elements(g))
        c = data.draw(colors(product))
        some = data.draw(st.lists(elements(g), max_size=6))
        center = data.draw(elements(g))
        r = data.draw(st.integers(0, 4))
        entries = phi.entries

        self.agree(phi.with_entry(e, c), {**entries, e: c})
        if product:
            assert phi.with_entry(e, list(c)) == phi.with_entry(e, c)
        self.agree(phi.restrict(some), {x: v for x, v in entries.items() if x in some})
        self.agree(phi.remove(some), {x: v for x, v in entries.items() if x not in some})
        if all(psi.entries.get(x, v) == v for x, v in entries.items()):
            self.agree(phi.union(psi), {**entries, **psi.entries})
        else:
            with pytest.raises(ValueError, match="union conflict"):
                phi.union(psi)
        self.agree(
            phi.window(center, r), {x: v for x, v in entries.items() if g.dist(center, x) <= r}
        )
        gamma = data.draw(elements(g))
        ginv = g.inv(gamma)
        self.agree(shift(phi, gamma), {g.mul(x, ginv): v for x, v in entries.items()})
        self.agree(ProperColoring(g, 3).empty(), {})
        if product:
            h = data.draw(st.integers(0, 4))
            self.agree(
                truncated_window(phi, center, r, h),
                {x: v for x, v in entries.items() if v[0] <= h and g.dist(center, x) <= r},
            )
            self.agree(truncated_window(phi, center, INF, h),
                       {x: v for x, v in entries.items() if v[0] <= h})
            self.agree(project(phi), {x: v[1] for x, v in entries.items()})
            base = ProperColoring(g, 3)
            self.agree(ReducedIdeal(base, derived_join_from_local(base.locality_radius)).empty(), {})

    @pytest.mark.parametrize("g", [Z1, Z2, F2], ids=["Z1", "Z2", "F2"])
    def test_with_entry_and_shift_still_refuse(self, g):
        phi = PartialColoring(g, {g.identity(): 0})
        for bad in BAD_ELEMENTS[g]:
            with pytest.raises(ValueError):
                phi.with_entry(bad, 1)
            with pytest.raises(ValueError):
                shift(phi, bad)
        for bad in BAD_COLORS:
            with pytest.raises(ValueError):
                phi.with_entry(g.identity(), bad)


def _boundary_only(monkeypatch):
    """Make the element and color checks raise unless called straight from
    one of the public methods that take caller input."""
    allowed = {
        PartialColoring.with_entry.__code__,
        shift.__code__,
        IdealSpec.extend_at.__code__,
    }

    def guard(real):
        def check(*args):
            caller = sys._getframe(1).f_code
            if caller not in allowed:
                raise AssertionError(f"{caller.co_name} validated a derived pattern again")
            return real(*args)

        return check

    for cls in (FreeAbelian, FreeGroup):
        monkeypatch.setattr(cls, "validate", guard(cls.validate))
    monkeypatch.setattr(patterns, "_validate_color", guard(patterns._validate_color))


class TestValidatedOnce:
    """Law 6."""

    @staticmethod
    def jobs(g):
        """Zero-argument calls into every kernel that derives patterns, with
        their inputs built (and validated) beforehand."""
        P = ProperColoring(g, 3)
        join = derived_join_from_local(P.locality_radius)
        RI = ReducedIdeal(P, join)
        member = grow_random_member(RI, random.Random(5), 4, radius=3)
        small = PartialColoring(g, {g.identity(): 0})
        radius = 3 if g is F2 else 5
        omega = PartialColoring(g, {e: k % 3 for k, e in enumerate(identity_ball(g, radius))})
        return {
            "grow": lambda: grow_random_member(P, random.Random(1), 6, radius=4),
            "grow-reduced": lambda: grow_random_member(RI, random.Random(2), 3, radius=3),
            "axioms": lambda: ideal_axioms_check(P, 8, seed=3, radius=4, shift_radius=2),
            "local": lambda: check_local(P, P.locality_radius, 30, seed=4, radius=4),
            "join": lambda: check_join(P, join, 3, 8, seed=5, radius=4),
            "reduced-contains": lambda: reduced_contains(RI, member),
            "decompose": lambda: decompose(RI, member),
            "oracle": lambda: extension_oracle(P, small, 1, node_budget=10_000),
            "sparse": lambda: sparse_run(g, [1, 3], radius, 2, seed=6),
            "extract": lambda: extract_patterns(omega, 1, 1),
        }

    @pytest.mark.parametrize("g", [Z1, Z2, F2], ids=["Z1", "Z2", "F2"])
    def test_kernels_give_the_unpatched_reports(self, g, monkeypatch):
        jobs = self.jobs(g)
        expected = {name: to_jsonable(job()) for name, job in jobs.items()}
        _boundary_only(monkeypatch)
        assert {name: to_jsonable(job()) for name, job in jobs.items()} == expected
        with pytest.raises(AssertionError, match="validated a derived pattern again"):
            PartialColoring(g, {g.identity(): 0})
