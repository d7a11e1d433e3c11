"""Member growth that trusts its own invariant.

Laws under test:
1. ``grow_random_member`` keeps phi a member and gamma uncoloured, so its
   steps check neither. On ProperColoring, DistanceConstrained,
   NotUniversal, a kind that defines only ``contains`` and reduced ideals
   over Z^1-Z^3 and F_1-F_3 it grows the members that growth through the
   public ``extend_at`` grew (growth_reference.py), leaves the rng in the
   same state, and raises as that growth raised; every member it grows is
   one. A kind whose empty pattern is no member grows nothing, and draws
   as the reference draws.
2. ``extend_at``, ``extend_reduced`` and ``reduced_contains`` give the
   reference's answers, exceptions included (PaletteExhausted, ValueError,
   BudgetError), on patterns that are members or not, in or out of the
   palette, with plain or product colours, at coloured and uncoloured
   points.
3. Growth stays O(m^2): a pairwise kind measures one distance per coloured
   point at each attempt, where the reference's re-checks measure O(m^3)
   over a growth.
4. The public preconditions stay: ``extend_at`` on a non-member returns
   None, ``is_extendable_at`` raises on one, and ``extend_reduced`` on a
   non-member raises ValueError.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from shiftcolor.groups import FreeAbelian, FreeGroup, identity_ball, parse_group
from shiftcolor.ideals import (
    ConstantJoin,
    DistanceConstrained,
    IdealSpec,
    NotUniversal,
    ProperColoring,
    grow_random_member,
    is_extendable_at,
)
from shiftcolor.patterns import PartialColoring
from shiftcolor.radii import INF
from shiftcolor.reduction import ReducedIdeal, derived_join_from_local, extend_reduced, reduced_contains

import growth_reference as reference

GROUPS = [FreeAbelian(1), FreeAbelian(2), FreeAbelian(3), FreeGroup(1), FreeGroup(2), FreeGroup(3)]


class _ProperByContains(IdealSpec):
    """Proper 3-colourings through nothing but ``contains``: no palette
    bound, so growth takes the default hook and the default colour bound."""

    kind = "ProperByContains"

    def __init__(self, group):
        self.group, self._inner = group, ProperColoring(group, 3)

    def contains(self, phi):
        return self._inner.contains(phi)

    def locality_radius(self, color):
        return 1

    def to_json(self):
        return {"kind": self.kind, "group": self.group.spec_string()}


class _NonEmptyOnly(_ProperByContains):
    """Deliberately broken: the empty pattern is no member."""

    kind = "NonEmptyOnly"

    def contains(self, phi):
        return len(phi) > 0 and self._inner.contains(phi)


def _kinds(g):
    pc3 = ProperColoring(g, 3)
    dc = DistanceConstrained(g, (0, 1, 2), (1, 2, INF))  # an empty band, an infinite one
    return [
        ProperColoring(g, 2),
        pc3,
        DistanceConstrained(g, (1, 3), (3, 7)),
        dc,
        NotUniversal(g, (1, 3), (5, 13)),
        NotUniversal(g, (0, 1, 2), (1, 3, 5)),
        _ProperByContains(g),
        ReducedIdeal(pc3, derived_join_from_local(pc3.locality_radius)),
        ReducedIdeal(dc, derived_join_from_local(dc.locality_radius)),  # unbounded at colour 2
        ReducedIdeal(NotUniversal(g, (0, 1), (1, 3)), ConstantJoin(2)),
    ]


KINDS = [P for g in GROUPS for P in _kinds(g)]


def _top_radius(g):
    return 3 if isinstance(g, FreeGroup) and g.rank > 1 else 6


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:  # the exception is part of the answer
        return ("raised", type(exc), str(exc))
    if isinstance(result, PartialColoring):  # entries in insertion order
        return ("value", list(result.entries.items()))
    return ("value", result)


@st.composite
def _growths(draw):
    P = draw(st.sampled_from(KINDS))
    radius = draw(st.integers(0, _top_radius(P.group)))
    c_max = draw(st.one_of(st.none(), st.integers(-1, 4)))
    return P, draw(st.integers(0, 2**32)), draw(st.integers(0, 9)), radius, c_max


class TestGrowth:
    """Law 1."""

    @settings(max_examples=400, deadline=None)
    @given(case=_growths())
    def test_grows_the_reference_members(self, case):
        P, seed, size, radius, c_max = case
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = _outcome(grow_random_member, P, rng, size, radius, c_max)
        assert got == _outcome(reference.grow_random_member, P, ref_rng, size, radius, c_max)
        assert rng.getstate() == ref_rng.getstate()
        if got[0] == "value":
            phi = PartialColoring(P.group, got[1])
            assert P.contains(phi)
            if isinstance(P, ReducedIdeal):
                assert reference.reduced_contains(P, phi)

    @pytest.mark.parametrize("g", GROUPS[:4:3], ids=["Z1", "F1"])
    def test_empty_non_member_grows_nothing(self, g):
        P = _NonEmptyOnly(g)
        rng, ref_rng = random.Random(7), random.Random(7)
        assert grow_random_member(P, rng, 5, 4) == reference.grow_random_member(P, ref_rng, 5, 4)
        assert len(grow_random_member(P, random.Random(7), 5, 4)) == 0
        assert rng.getstate() == ref_rng.getstate()


@st.composite
def _patterns(draw):
    """(kind, pattern, gamma, c_max): a member grown by the reference or
    random entries, in and out of the palette, and in one pattern of four
    an entry whose colour is of the other sort, plain or pair."""
    P = draw(st.sampled_from(KINDS))
    points = identity_ball(P.group, 2)
    plain = st.integers(0, 5)
    pairs = st.tuples(st.integers(0, 6), st.integers(0, 4))
    native, foreign = (pairs, plain) if isinstance(P, ReducedIdeal) else (plain, pairs)
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 999)))
        entries = dict(reference.grow_random_member(P, rng, draw(st.integers(0, 5)), 2).entries)
    else:
        dom = draw(st.lists(st.sampled_from(points), max_size=5, unique=True))
        entries = {e: draw(native) for e in dom}
    if entries and draw(st.integers(0, 3)) == 0:
        entries[draw(st.sampled_from(sorted(entries, key=P.group.sort_key)))] = draw(foreign)
    phi = PartialColoring(P.group, entries)
    return P, phi, draw(st.sampled_from(points)), draw(st.one_of(st.none(), st.integers(-1, 4)))


class TestVerdicts:
    """Law 2."""

    @settings(max_examples=400, deadline=None)
    @given(case=_patterns())
    def test_extend_at_matches_reference(self, case):
        P, phi, gamma, c_max = case
        got = _outcome(P.extend_at, phi, gamma, c_max)
        assert got == _outcome(reference.extend_at, P, phi, gamma, c_max)
        if isinstance(P, ReducedIdeal):
            assert _outcome(reduced_contains, P, phi) == _outcome(reference.reduced_contains, P, phi)
            assert _outcome(extend_reduced, P, phi, gamma, c_max) == _outcome(
                reference.extend_reduced, P, phi, gamma, c_max)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_reduced_contains_on_members_and_their_neighbours(self, data):
        """Grown members, one entry recoloured: both sides of the window's
        reach and of the base's verdict."""
        P = data.draw(st.sampled_from([P for P in KINDS if isinstance(P, ReducedIdeal)]))
        phi = grow_random_member(P, random.Random(data.draw(st.integers(0, 999))), 5, 3)
        if phi:
            e = data.draw(st.sampled_from(sorted(phi.domain(), key=P.group.sort_key)))
            h, c = data.draw(st.tuples(st.integers(0, 9), st.integers(0, 3)))
            phi = phi.with_entry(e, (h, c))
        assert _outcome(reduced_contains, P, phi) == _outcome(reference.reduced_contains, P, phi)

    @pytest.mark.parametrize("g", GROUPS[::4], ids=["Z1", "F2"])
    def test_reduced_contains_on_every_pair(self, g):
        """Two points at each distance up to 7, first coordinates up to 3:
        both edges of the window, h and 3h, on every reduced kind."""
        seen = set()
        for P in _kinds(g)[-3:]:
            for t, h1, c1, h2, c2 in product(range(1, 8), range(4), range(3), range(4), range(3)):
                phi = PartialColoring(g, {g.identity(): (h1, c1), g.element_at_distance(t): (h2, c2)})
                got = _outcome(reduced_contains, P, phi)
                assert got == _outcome(reference.reduced_contains, P, phi), (P, phi)
                seen.add(got)
        assert {("value", True), ("value", False)} <= seen


class _DistanceCounter:
    def __init__(self, g):
        self.calls, self._dist = 0, g.dist

    def __call__(self, x, y):
        self.calls += 1
        return self._dist(x, y)


@pytest.mark.parametrize(
    "make", [lambda g: ProperColoring(g, 5), lambda g: NotUniversal(g, (0, 1, 2, 3), (1, 3, 5, 7)),
             lambda g: DistanceConstrained(g, (0, 1, 2, 3), (2, 3, 5, 9))],
    ids=["proper", "not-universal", "distance-constrained"],
)
@pytest.mark.parametrize("spec", ["Z^1", "Z^2", "F_2"])
def test_growth_measures_one_distance_row_per_attempt(make, spec, monkeypatch):
    """Law 3: at most as many distances as phi has points at each attempt,
    summed over the attempts; a fresh group, so its ``dist`` can be
    counted alone."""
    g = parse_group(spec)
    P = make(g)
    radius = {"Z^1": 60, "Z^2": 8, "F_2": 4}[spec]
    sizes = []  # the size of phi at each attempt
    grow_at = P._grow_at

    def attempt(phi, gamma, c_max):
        sizes.append(len(phi))
        return grow_at(phi, gamma, c_max)

    monkeypatch.setattr(P, "_grow_at", attempt)
    counter = _DistanceCounter(g)
    monkeypatch.setattr(g, "dist", counter)
    phi = grow_random_member(P, random.Random(3), 40, radius)
    assert len(phi) >= 20
    assert counter.calls <= sum(sizes)
    counter.calls = 0
    assert reference.grow_random_member(P, random.Random(3), 40, radius) == phi
    assert counter.calls > 3 * sum(sizes)  # the re-checks, cubic in the size


class TestPreconditions:
    """Law 4."""

    @pytest.mark.parametrize("P", [ProperColoring(GROUPS[0], 3), _ProperByContains(GROUPS[0])],
                             ids=["pairwise", "contains-only"])
    def test_extend_at_on_a_non_member_is_none(self, P):
        phi = PartialColoring(P.group, {0: 0, 1: 0})
        assert not P.contains(phi)
        assert P.extend_at(phi, 5) is None
        with pytest.raises(ValueError, match="not a member"):
            is_extendable_at(P, phi, 5)

    def test_extend_reduced_on_a_non_member_raises(self):
        base = ProperColoring(GROUPS[0], 3)
        RI = ReducedIdeal(base, derived_join_from_local(base.locality_radius))
        phi = PartialColoring(RI.group, {0: (0, 0)})  # R = 1 exceeds h = 0
        assert not reduced_contains(RI, phi)
        for extend in (extend_reduced, ReducedIdeal.extend_at):
            with pytest.raises(ValueError, match="needs a member"):
                extend(RI, phi, 5)
