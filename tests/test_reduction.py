"""The join property, the local criterion, and the radius-tracking reduction.

Laws under test:
1. Join functions are monotone and send the empty pattern to 0, a
   precondition of the reduced ideal; R.value evaluates them directly.
2. separated: domains farther apart than the sum of the two R-values;
   empty domains are infinitely far, hence always separated.
3. check_join: unions of pairwise separated members stay members for local
   kinds with their derived join bound; the constant-0 bound on proper
   2-colorings is refuted by sampled near pairs, each a pair of members
   whose union is not one. Pieces with an infinite R-value are not placed,
   and their sample judges no union.
4. check_local: the window criterion characterizes membership for proper
   colorings at radius 1; distance-constrained kinds at radius 1 admit
   counterexamples (their true radius is larger). A reduced ideal is
   sampled with pair colours (h, c) and is local on Z^1, Z^2 and F_2; its
   window radius refuses a colour that is not a pair. Both checks refuse
   a negative sampling radius, naming it. Sampled members of an ideal
   that is not closed under restriction are containment violations.
5. Product-coded reduction: membership via capped windows, the peeling
   decomposition (projections in base, R bounded by the height cap,
   pairwise separation), and point extension with the frozen (height,
   color) examples; an extension whose join value is infinite is an
   exhausted budget. Derived join forms need a base to derive from.
   check_reduction finds the grown members of reduced ideals clean.
"""

import random

import pytest

from shiftcolor.groups import BudgetError, FreeAbelian, FreeGroup
from shiftcolor.ideals import (
    ConstantJoin,
    DistanceConstrained,
    IdealSpec,
    NotUniversal,
    ProperColoring,
    SupRadiiJoin,
)
from shiftcolor.oracles import extension_oracle
from shiftcolor.patterns import PartialColoring
from shiftcolor.radii import INF
from shiftcolor.reports import to_jsonable
from shiftcolor.reduction import (
    ReducedIdeal,
    _place_separated,
    check_join,
    check_local,
    check_reduction,
    decompose,
    derived_join_from_local,
    extend_reduced,
    join_fn_from_json,
    project,
    reduced_contains,
    separated,
)

Z1 = FreeAbelian(1)
PC3 = ProperColoring(Z1, 3)
R_ONE = SupRadiiJoin(lambda c: 1, description=[1, 1, 1])
RED = ReducedIdeal(PC3, R_ONE)
# colour 0 at most once: its derived join bound is infinite
ONE_SHOT = DistanceConstrained(Z1, [1], ["inf"])


class OneNeedsZero(IdealSpec):
    """Patterns on Z^1 with at most one colour 0, and with one whenever a
    colour 1 appears: shift-invariant, with no largest colour, but not
    closed under restriction ({0: 0, 1: 1} is a member, {1: 1} is not)."""

    kind = "OneNeedsZero"
    group = Z1

    def contains(self, phi):
        colours = list(phi.entries.values())
        return colours.count(0) <= 1 and (0 in colours or 1 not in colours)

    def locality_radius(self, color):
        return 0

    def to_json(self):
        return {"kind": self.kind}


def pat(d):
    return PartialColoring(Z1, d)


class TestMonotoneR:
    def test_empty_is_zero(self):
        assert R_ONE.value(pat({})) == 0
        assert ConstantJoin(5).value(pat({})) == 0

    def test_monotone_direct(self):
        assert R_ONE.value(pat({0: 0, 1: 1})) == 1

    def test_constant_on_nonempty(self):
        assert ConstantJoin(5).value(pat({0: 0})) == 5


class TestSeparated:
    def test_far_pair(self):
        assert separated(pat({0: 0}), pat({3: 0}), R_ONE)

    def test_near_pair(self):
        assert not separated(pat({0: 0}), pat({2: 0}), R_ONE)

    def test_empty_always_separated(self):
        assert separated(pat({}), pat({0: 0}), R_ONE)


class TestCheckJoin:
    def test_proper_with_derived_bound(self):
        R = derived_join_from_local(PC3.locality_radius)
        report = check_join(PC3, R, tuple_size_max=3, samples=120, seed=0)
        assert report.ok and report.empty_member

    def test_not_universal_with_derived_bound(self):
        nu = NotUniversal(Z1, (1, 3), (5, 13))
        R = derived_join_from_local(nu.locality_radius)
        report = check_join(nu, R, tuple_size_max=3, samples=120, seed=0)
        assert report.ok

    def test_unbounded_join_places_no_tuple(self):
        """Pieces with an infinite R-value cannot be placed apart: the
        placement gives up at once, and check_join counts the sample and
        judges no union."""
        R = join_fn_from_json("derived", ONE_SHOT)
        assert _place_separated(ONE_SHOT, R, [pat({0: 0})], random.Random(0)) is None
        report = check_join(ONE_SHOT, R, tuple_size_max=3, samples=20, seed=0)
        assert report.ok and report.samples == 20

    def test_constant_zero_refuted_on_proper_two(self):
        # {0->0} and {1->0} are members, distance 1 > 0+0, union clashes;
        # the sampled tuples meet such near pairs
        pc2 = ProperColoring(Z1, 2)
        assert separated(pat({0: 0}), pat({1: 0}), ConstantJoin(0))
        assert not pc2.contains(pat({0: 0, 1: 0}))
        report = check_join(pc2, ConstantJoin(0), tuple_size_max=2, samples=40, seed=0)
        assert not report.ok
        assert report.violations
        for violation in report.violations:
            assert all(pc2.contains(PartialColoring.from_json(p)) for p in violation["pieces"])
            assert not pc2.contains(PartialColoring.from_json(violation["union"]))

    def test_empty_union_case(self):
        report = check_join(PC3, R_ONE, tuple_size_max=0, samples=5, seed=0)
        assert report.empty_member

    def test_negative_radius_refused(self):
        with pytest.raises(ValueError, match="^radius must be nonnegative, got -1$"):
            check_join(PC3, R_ONE, tuple_size_max=2, samples=5, seed=0, radius=-1)


class TestCheckLocal:
    def test_proper_is_local_at_one(self):
        report = check_local(PC3, PC3.locality_radius, enumeration_budget=150, seed=0)
        assert report.ok, report.to_jsonable()

    def test_negative_radius_refused(self):
        with pytest.raises(ValueError, match="^radius must be nonnegative, got -1$"):
            check_local(PC3, PC3.locality_radius, enumeration_budget=4, seed=0, radius=-1)

    def test_distance_kind_not_local_at_one(self):
        # gap for color 0 is 3, so radius-1 windows cannot see the clash at
        # distance 2: the criterion accepts a non-member
        dc = DistanceConstrained(Z1, (1, 3), (1, 2))
        report = check_local(dc, lambda c: 1, enumeration_budget=200, seed=0)
        assert not report.ok
        assert report.counterexamples

    def test_distance_kind_local_at_true_radius(self):
        dc = DistanceConstrained(Z1, (1, 3), (1, 2))
        report = check_local(dc, dc.locality_radius, enumeration_budget=150, seed=0)
        assert report.ok

    def test_ideal_not_closed_under_restriction_is_reported(self):
        """Growth gives {a: 0, b: 1}, whose radius-0 window at b is no
        member, so the sampled members are containment violations. With no
        largest colour, the random patterns draw colours up to 8, and the
        extension oracle asks for a palette."""
        P = OneNeedsZero()
        report = check_local(P, lambda c: 0, enumeration_budget=40, seed=0)
        assert report.containment_violations and not report.ok
        assert report.loc_members_examined > 0
        with pytest.raises(ValueError, match="no finite palette; pass palette_max"):
            extension_oracle(P, pat({0: 0}), 1)

    @pytest.mark.parametrize("group", [Z1, FreeAbelian(2), FreeGroup(2)])
    def test_reduced_ideal_sampled_with_pair_colours(self, group):
        """Plain colours would have no window radius here: every sampled
        pattern carries pairs (h, c), and those that pass the window
        criterion are members, as the reduction promises."""
        red = ReducedIdeal(ProperColoring(group, 3), ConstantJoin(1))
        for seed in (0, 1):
            report = check_local(red, red.locality_radius, enumeration_budget=200, seed=seed)
            assert report.ok, report.to_jsonable()
            assert report.members_checked == 100 and report.loc_members_examined > 0


class TestReducedLocalityRadius:
    def test_pairs_only(self):
        assert RED.locality_radius((2, 1)) == 6
        for bad in (1, (1, 2, 3), "x", [1, 2]):
            with pytest.raises(ValueError, match="pairs"):
                RED.locality_radius(bad)


class TestProject:
    def test_second_coordinate(self):
        phi = pat({0: (1, 0), 2: (2, 1)})
        assert dict(project(phi).entries) == {0: 0, 2: 1}

    def test_requires_product_colors(self):
        with pytest.raises(ValueError):
            project(pat({0: 3}))


class TestReducedContains:
    def test_empty(self):
        assert reduced_contains(RED, pat({}))

    def test_singletons(self):
        assert reduced_contains(RED, pat({0: (1, 0)}))
        # height 0 cannot absorb the join bound R == 1
        assert not reduced_contains(RED, pat({0: (0, 0)}))

    def test_window_projection_must_be_proper(self):
        # both heights 1, distance 1: the capped window around each point
        # contains both, and the projection 0,0 clashes
        assert not reduced_contains(RED, pat({0: (1, 0), 1: (1, 0)}))
        assert reduced_contains(RED, pat({0: (1, 0), 1: (1, 1)}))

    def test_support_must_fit_in_height_ball(self):
        # at the height-2 point, the capped window reaches distance 6 but
        # entries of height <= 2 beyond distance 2 violate the fit condition
        phi = pat({0: (2, 0), 4: (1, 1)})
        assert not reduced_contains(RED, phi)

    def test_membership_is_restriction_closed_here(self):
        phi = pat({0: (1, 0), 4: (2, 1), -3: (1, 2)})
        if reduced_contains(RED, phi):
            for e in phi.domain():
                rest = phi.restrict([x for x in phi.domain() if x != e])
                assert reduced_contains(RED, rest)


class TestDecompose:
    def test_empty(self):
        dec = decompose(RED, pat({}))
        assert dec.pieces == ()
        assert dec.h_bound == 0

    def test_singleton(self):
        phi = pat({0: (1, 0)})
        dec = decompose(RED, phi)
        assert len(dec.pieces) == 1 and dec.pieces[0] == phi

    def test_far_pair_splits(self):
        phi = pat({0: (1, 0), 9: (1, 1)})
        assert reduced_contains(RED, phi)
        dec = decompose(RED, phi)
        assert len(dec.pieces) == 2

    def test_conclusions(self):
        """Projections in base, R bounded by the global height cap, pieces
        pairwise separated, union restores the pattern."""
        phi = pat({0: (1, 0), 1: (1, 1), 9: (2, 2)})
        assert reduced_contains(RED, phi)
        dec = decompose(RED, phi)
        merged = {}
        for piece in dec.pieces:
            psi = project(piece)
            assert PC3.contains(psi)
            assert R_ONE.value(psi) <= dec.h_bound
            assert reduced_contains(RED, piece)
            merged.update(piece.entries)
        assert merged == dict(phi.entries)
        for i in range(len(dec.pieces)):
            for j in range(i + 1, len(dec.pieces)):
                assert separated(project(dec.pieces[i]), project(dec.pieces[j]), R_ONE)

    def test_json_layout(self):
        dec = decompose(RED, pat({0: (1, 0), 1: (1, 1), 9: (2, 2)}))
        assert to_jsonable(dec) == {
            "pieces": [
                {"group": "Z^1", "entries": [[9, [2, 2]]]},
                {"group": "Z^1", "entries": [[0, [1, 0]], [1, [1, 1]]]},
            ],
            "h_bound": 2,
        }

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            decompose(RED, pat({0: (0, 0)}))


class TestCheckReduction:
    @pytest.mark.parametrize("ideal", [RED, ReducedIdeal(ProperColoring(FreeGroup(2), 5), ConstantJoin(1))])
    def test_grown_members_are_clean(self, ideal):
        report = check_reduction(ideal, 20, seed=1)
        assert report.ok and report.samples == len(report.sampled_patterns) == 20
        assert report.reduced_spec == ideal.to_json()


class TestExtendReduced:
    def test_frozen_empty_case(self):
        assert extend_reduced(RED, pat({}), 0) == (1, 0)

    def test_frozen_adjacent_case(self):
        # base extension picks color 1; height must exceed the existing
        # height 1 and cover R(psi') = 1 and the domain radius 1 -> 2
        assert extend_reduced(RED, pat({0: (1, 0)}), 1) == (2, 1)

    def test_extension_is_member(self):
        phi = pat({0: (1, 0), 5: (1, 1)})
        h, c = extend_reduced(RED, phi, 1)
        ext = phi.with_entry(1, (h, c))
        assert reduced_contains(RED, ext)

    def test_rejects_colored_point(self):
        with pytest.raises(ValueError):
            extend_reduced(RED, pat({0: (1, 0)}), 0)

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            extend_reduced(RED, pat({0: (0, 0)}), 1)

    def test_unbounded_join_is_an_exhausted_budget(self):
        RI = ReducedIdeal(ONE_SHOT, join_fn_from_json({"form": "SupOfRadii", "r": "derived"}, ONE_SHOT))
        with pytest.raises(BudgetError, match="join function is unbounded"):
            extend_reduced(RI, pat({}), 0)

    def test_reduced_ideal_extend_at_integrates(self):
        ext = RED.extend_at(pat({}), 0)
        assert ext == (1, 0)


class TestJoinFnJson:
    def test_constant_form(self):
        R = join_fn_from_json({"form": "Constant", "value": 2}, PC3)
        assert R.value(pat({0: 0})) == 2

    def test_derived_form(self):
        R = join_fn_from_json("derived", PC3)
        assert R.value(pat({0: 0})) == 1

    def test_derived_forms_need_a_base(self):
        for obj in ("derived", {"form": "SupOfRadii"}):
            with pytest.raises(ValueError, match="needs an ideal to derive from"):
                join_fn_from_json(obj)
        R = join_fn_from_json({"form": "SupOfRadii", "r": "derived"}, PC3)
        assert R.value(pat({0: 2})) == 1
        assert R.value(pat({0: 0})) == join_fn_from_json("derived", PC3).value(pat({0: 0}))

    def test_table_form(self):
        R = join_fn_from_json({"form": "SupOfRadii", "r": [2, 5]}, PC3)
        assert R.value(pat({0: 1})) == 5
        with pytest.raises(ValueError):
            R.value(pat({0: 7}))

    def test_reduced_ideal_roundtrip(self):
        from shiftcolor.ideals import ideal_from_json

        clone = ideal_from_json(RED.to_json())
        probe = pat({0: (1, 0)})
        assert clone.contains(probe) == RED.contains(probe)
        assert clone.to_json() == RED.to_json()

    def test_opaque_callable_join_has_no_json_form(self):
        opaque = SupRadiiJoin(lambda c: 1, description="ad hoc")
        with pytest.raises(ValueError):
            opaque.to_json()
