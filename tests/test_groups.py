"""Concrete groups and their right-invariant word metrics.

Laws under test:
1. Metric laws, exactly: symmetry, right-invariance dist(ag, bg) = dist(a, b),
   triangle inequality, identity of indiscernibles.
2. Frozen small facts: reduced-word products, ball sizes, specific distances.
   Every ball about the identity is exactly the list the breadth-first
   search kept here returns, and every other ball is its right translate,
   in its order, holding the breadth-first ball about the centre (on Z^d,
   equal to it). A region's distances between the offsets of a
   ball about the identity (``Region.slot_distances``) are g.dist's.
3. Packing searches return the frozen minimal sequences, and every returned
   certificate re-verifies by direct ball enumeration (independent of the
   search code path). The pruned d-sequence search returns exactly what the
   all-pairs search kept here returns, errors included.
4. F_k arithmetic on strings agrees with letter-by-letter reference versions
   kept here. The packed arithmetic (pack, mul_packed, dist_packed,
   element_codes) agrees with the scalar mul, dist and element_code on
   Z^1-Z^4, F_1-F_5, F_18 and F_26, on both sides of pack_limit and past
   int64. Rows are machine integers exactly while every norm is at most
   pack_limit, and products exactly while every |a| + |b| is. F_k rows
   carry the word's letter fields, as a letter-by-letter reference here
   lays them out, and the bit-field kernels give the numerals, lengths and
   distances of the numeral kernels they replaced (packed_reference.py),
   also on words that end where a uint64 of fields is full and one letter
   past it (on F_5 all 64 bits at pack_limit).
6. The closed-form ball sizes equal the length of the enumerated balls.
   The packed ball of ``ball_arrays`` is ``pack``'s form, coded as the
   scalar element_code codes it, and the elements ``decode_ball`` reads
   from its arrays are the breadth-first ball; a ball whose arrays cannot
   fit in memory is refused before anything is allocated, and one whose
   decoded elements cannot is refused before anything is built or
   decoded, each at a charge per point that covers the peak resident
   growth measured in fresh processes. The Z^d arrays built from lattice-point
   counts equal those of the lexsort-and-searchsorted construction they
   replaced, and ``lex_ball`` lists the same points in lexicographic order.
5. Conventions: minimum distance between sets is infinite when a set is
   empty; budget exhaustion raises loudly, and a negative budget is refused
   as a usage error. So are a group of rank or dimension 0, F_27 and up,
   a malformed JSON element (named as given), a negative d-sequence count
   and a negative annulus d, each with its message.
"""

import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftcolor import groups
from shiftcolor.groups import (
    BudgetError,
    DSequence,
    FreeAbelian,
    FreeGroup,
    PackingWitness,
    annulus_D,
    ball_size,
    d_sequence,
    identity_ball,
    parse_group,
    refuse_decoding,
    set_dist,
)
from shiftcolor.radii import INF
from shiftcolor.ideals import ProperColoring, grow_random_member, ideal_axioms_check
from shiftcolor.rng import element_code, element_codes
from shiftcolor.simulate import Region

from ball_reference import bfs_ball, sorted_ball_arrays
from packed_reference import numeral_dist_packed, numeral_mul_packed

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
F2 = FreeGroup(2)


def z1_elements():
    return st.integers(min_value=-50, max_value=50)


def z2_elements():
    return st.tuples(st.integers(-20, 20), st.integers(-20, 20))


def f2_elements():
    # build a random reduced word by multiplying random generators
    return st.lists(st.sampled_from(["a", "b", "A", "B"]), max_size=8).map(
        lambda gens: _word(gens)
    )


def _word(gens):
    w = F2.identity()
    for s in gens:
        w = F2.mul(s, w)
    return w


class TestParseGroup:
    def test_forms(self):
        assert parse_group("Z^1") == Z1
        assert parse_group("Z^2") == Z2
        assert parse_group("F_2") == F2

    def test_passthrough(self):
        assert parse_group(Z1) is Z1

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_group("Q^9")
        with pytest.raises(ValueError):
            parse_group("Z^0")

    @pytest.mark.parametrize(
        "family, size, message",
        [(FreeAbelian, 0, "dimension must be >= 1, got 0"), (FreeGroup, 0, "rank must be >= 1, got 0"),
         (FreeGroup, 27, "ranks above 26 are not supported")],
        ids=["Z^0", "F_0", "F_27"],
    )
    def test_constructors_refuse_sizes(self, family, size, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            family(size)


class TestFrozenFacts:
    def test_free_reduction(self):
        # (ab) * (b^-1 a): the seam bB cancels, leaving aa
        assert F2.mul("ab", "Ba") == "aa"

    def test_free_inverse(self):
        assert F2.inv("ab") == "BA"
        assert F2.mul("ab", F2.inv("ab")) == ""

    def test_f2_dist(self):
        # dist(a, ba) = |ba * A| = |b| = 1
        assert F2.dist("a", "ba") == 1

    def test_f2_ball_sizes(self):
        # |Ball(r)| = 1 + 2(3^r - 1) for the rank-2 free group
        for r in range(4):
            assert len(F2.ball("", r)) == 1 + 2 * (3**r - 1)

    def test_z2_dist(self):
        assert Z2.dist((0, 0), (2, -1)) == 3

    def test_z1_ball(self):
        assert sorted(Z1.ball(0, 3)) == list(range(-3, 4))

    def test_ball_is_distance_layered(self):
        pts = Z1.ball(0, 2)
        dists = [Z1.dist(0, e) for e in pts]
        assert dists == sorted(dists)

    def test_identity_alias_parsing(self):
        assert F2.element_from_json("") == ""
        assert F2.element_from_json("1") == ""
        assert F2.element_from_json(1) == ""

    def test_z1_bare_int_elements(self):
        assert Z1.identity() == 0
        assert Z1.element_to_json(-3) == -3
        assert Z1.element_from_json(-3) == -3

    @pytest.mark.parametrize(
        "g, obj",
        [(Z1, "3"), (Z1, True), (Z1, [1, 2]), (Z1, [True]), (Z2, 3), (Z2, [1]), (Z2, [1, 2, 3]),
         (Z2, [True, 1]), (Z2, [1.5, 2])],
        ids=["z1-str", "z1-bool", "z1-pair", "z1-bool-list", "z2-int", "z2-short", "z2-long",
             "z2-bool-list", "z2-float-list"],
    )
    def test_malformed_json_elements_are_refused(self, g, obj):
        with pytest.raises(ValueError, match=f"^not a {re.escape(g.name)} element: {re.escape(repr(obj))}$"):
            g.element_from_json(obj)


class TestMetricLaws:
    @given(a=z1_elements(), b=z1_elements(), c=z1_elements())
    def test_z1(self, a, b, c):
        _metric_laws(Z1, a, b, c)

    @given(a=z2_elements(), b=z2_elements(), c=z2_elements())
    def test_z2(self, a, b, c):
        _metric_laws(Z2, a, b, c)

    @settings(max_examples=60)
    @given(a=f2_elements(), b=f2_elements(), c=f2_elements())
    def test_f2(self, a, b, c):
        _metric_laws(F2, a, b, c)

    @settings(max_examples=60)
    @given(a=f2_elements(), b=f2_elements())
    def test_f2_group_laws(self, a, b):
        """Products reduce; inverses invert."""
        assert F2.mul(a, F2.inv(a)) == ""
        assert F2.inv(F2.inv(a)) == a
        F2.validate(F2.mul(a, b))


def _metric_laws(g, a, b, c):
    assert g.dist(a, b) == g.dist(b, a)
    assert g.dist(a, b) >= 0
    assert (g.dist(a, b) == 0) == (a == b)
    assert g.dist(g.mul(a, c), g.mul(b, c)) == g.dist(a, b)
    assert g.dist(a, c) <= g.dist(a, b) + g.dist(b, c)


def _centers(group):
    if isinstance(group, FreeGroup):
        return _reduced_words(group)
    coords = st.integers(-6, 6)
    if group.dimension == 1:
        return coords
    return st.tuples(*[coords] * group.dimension)


_BALL_GROUPS = ["Z^1", "Z^2", "Z^3", "Z^4", "F_1", "F_2", "F_3"]


def _assert_translates_breadth_first_ball(g, center, r):
    """Ball(center, r) is w*center for w in the breadth-first Ball(1, r), in
    its order, and holds the points of the breadth-first search from the
    centre; on Z^d, where a translate keeps the lexicographic order, it is
    that search's list."""
    got = g.ball(center, r)
    assert got == [g.mul(w, center) for w in bfs_ball(g, g.identity(), r)]
    assert sorted(got, key=g.sort_key) == sorted(bfs_ball(g, center, r), key=g.sort_key)
    if isinstance(g, FreeAbelian):
        assert got == bfs_ball(g, center, r)


class TestBall:
    @pytest.mark.parametrize("spec", _BALL_GROUPS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), r=st.integers(-2, 12).map(lambda k: Fraction(k, 2)))
    def test_matches_breadth_first_reference(self, spec, data, r):
        g = parse_group(spec)
        center = data.draw(_centers(g))
        _assert_translates_breadth_first_ball(g, center, r)
        assert identity_ball(g, r) == tuple(bfs_ball(g, g.identity(), r))

    @pytest.mark.parametrize("spec", _BALL_GROUPS)
    def test_infinite_radius_is_refused(self, spec):
        g = parse_group(spec)
        message = "^cannot enumerate a ball of infinite radius$"
        with pytest.raises(ValueError, match=message):
            g.ball(g.identity(), INF)
        with pytest.raises(ValueError, match=message):
            identity_ball(g, INF)

    @given(r=st.integers(min_value=0, max_value=4))
    def test_membership_matches_distance(self, r):
        pts = set(F2.ball("a", r))
        for e in F2.ball("", r + 1):
            assert (e in pts) == (F2.dist("a", e) <= r)

    @pytest.mark.parametrize("spec", _BALL_GROUPS)
    @settings(max_examples=10, deadline=None)
    @given(r=st.integers(0, 4))
    def test_offset_distances_match_dist(self, spec, r):
        g = parse_group(spec)
        ball = identity_ball(g, r)
        assert Region(g, r).slot_distances(r).tolist() == [[g.dist(a, b) for b in ball] for a in ball]

    def test_nested(self):
        small = set(Z2.ball((1, 1), 2))
        big = set(Z2.ball((1, 1), 3))
        assert small < big


class TestSetDist:
    def test_empty_is_infinite(self):
        assert set_dist(Z1, [], [0]) is INF
        assert set_dist(Z1, [], []) is INF

    def test_min_pairwise(self):
        assert set_dist(Z1, [0, 10], [4, 20]) == 4


class TestDSequence:
    def test_z1_frozen(self):
        seq = d_sequence(Z1, 3)
        assert tuple(seq.values) == (1, 3, 7, 15)

    def test_z1_doubling_rule(self):
        # On the line the minimal next scale is always 2d+1: two radius-d
        # balls fit disjointly in a radius-(2d+1) ball and in nothing smaller.
        seq = d_sequence(Z1, 5, budget=128)
        for a, b in zip(seq.values, seq.values[1:]):
            assert b == 2 * a + 1

    def test_f2_frozen(self):
        assert tuple(d_sequence(F2, 2).values) == (1, 3, 7)

    def test_reads_as_its_values(self):
        """A DSequence iterates, measures and indexes as its values, so
        ``list(seq)``, ``len(seq)``, ``seq[i]`` and slices read the
        scales; the witnesses stay on ``witnesses``."""
        seq = d_sequence(Z1, 3)
        assert list(seq) == list(seq.values) == [1, 3, 7, 15]
        assert len(seq) == len(seq.witnesses) == 4
        assert [seq[i] for i in range(len(seq))] == [1, 3, 7, 15]
        assert seq[-1] == 15 and seq[1:3] == (3, 7)
        with pytest.raises(IndexError):
            seq[4]

    def test_z2_first_step(self):
        # d_1 = 3 via centers (-1,-1) and (1,1): dist 4 > 2*1
        assert tuple(d_sequence(Z2, 1).values) == (1, 3)

    def test_witnesses_reverify(self):
        """Certificates check out by direct set operations."""
        for g in (Z1, Z2, F2):
            seq = d_sequence(g, 2)
            assert seq.witnesses[0] is None
            for w in seq.witnesses[1:]:
                ball_a = set(bfs_ball(g, w.center_a, w.inner_radius))
                ball_b = set(bfs_ball(g, w.center_b, w.inner_radius))
                enclosing = set(bfs_ball(g, g.identity(), w.enclosing_radius))
                assert ball_a.isdisjoint(ball_b)
                assert ball_a <= enclosing and ball_b <= enclosing

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            d_sequence(Z1, 10, budget=20)

    def test_negative_budget_is_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            d_sequence(Z1, 3, budget=-1)

    def test_negative_count_is_refused(self):
        with pytest.raises(ValueError, match="^count must be >= 0, got -1$"):
            d_sequence(Z1, -1)


def _all_pairs_d_sequence(group, count, budget=64):
    """The packing search without pruning: every enclosing radius above d,
    every pair of candidates in breadth-first order."""
    group = parse_group(group)
    one = group.identity()
    d0 = None
    for r in range(0, budget + 1):
        if len(bfs_ball(group, one, r)) >= 2:
            d0 = r
            break
    if d0 is None:
        raise BudgetError(f"no radius <= {budget} gives a two-element ball in {group.name}")
    values = [d0]
    witnesses = [None]
    for _ in range(count):
        d = values[-1]
        found = None
        for enclosing in range(d + 1, budget + 1):
            candidates = bfs_ball(group, one, enclosing - d)
            for i, x in enumerate(candidates):
                for y in candidates[i + 1 :]:
                    if group.dist(x, y) > 2 * d:
                        found = PackingWitness(x, y, d, enclosing)
                        break
                if found:
                    break
            if found:
                break
        if not found:
            raise BudgetError(
                f"packing search for the successor of d={d} in {group.name} "
                f"exceeded the radius budget {budget}"
            )
        values.append(found.enclosing_radius)
        witnesses.append(found)
    return DSequence(group, tuple(values), tuple(witnesses))


def _outcome(search, spec, count, budget):
    try:
        seq = search(spec, count, budget=budget)
    except BudgetError as exc:
        return "budget", str(exc)
    return "found", seq.values, seq.witnesses


class TestPrunedSearchAgainstAllPairs:
    CASES = [("Z^1", 6, 128), ("Z^2", 3, 64), ("Z^3", 2, 64), ("F_1", 4, 64), ("F_2", 2, 64), ("F_3", 2, 64)]

    @pytest.mark.parametrize("spec,count,budget", CASES)
    def test_values_and_witnesses(self, spec, count, budget):
        seq = d_sequence(spec, count, budget=budget)
        reference = _all_pairs_d_sequence(spec, count, budget=budget)
        assert seq.values == reference.values
        assert seq.witnesses == reference.witnesses

    @pytest.mark.parametrize("spec,count,budget", CASES)
    def test_same_budget_errors(self, spec, count, budget):
        values = _all_pairs_d_sequence(spec, count, budget=budget).values
        # no two-element ball, the first step cut short, the last step cut
        # short, and a budget that is just enough
        for b in (0, values[1] - 1, values[-1] - 1, values[-1]):
            pruned = _outcome(d_sequence, spec, count, b)
            assert pruned == _outcome(_all_pairs_d_sequence, spec, count, b)
            assert pruned[0] == ("found" if b == values[-1] else "budget")

    @pytest.mark.parametrize("spec,count,budget", [("F_2", 3, 64), ("Z^1", 12, 10000)])
    def test_witnesses_valid_beyond_all_pairs_reach(self, spec, count, budget):
        """Sizes the all-pairs search took minutes on: each witness packs two
        disjoint radius-d balls into the enclosing ball."""
        seq = d_sequence(spec, count, budget=budget)
        g = seq.group
        assert len(seq.values) == count + 1
        for d, E, w in zip(seq.values, seq.values[1:], seq.witnesses[1:]):
            assert (w.inner_radius, w.enclosing_radius) == (d, E)
            assert g.norm(w.center_a) <= E - d and g.norm(w.center_b) <= E - d
            assert g.dist(w.center_a, w.center_b) > 2 * d
        if spec == "Z^1":
            assert seq.values == tuple(2 ** (i + 1) - 1 for i in range(count + 1))


def _inverse_letter(c):
    return c.lower() if c.isupper() else c.upper()


def _ref_inv(g):
    """Reverse the word and invert each letter."""
    return "".join(_inverse_letter(c) for c in reversed(g))


def _ref_mul(g, h):
    """Append h to g one letter at a time, cancelling at the seam."""
    out = list(g)
    for c in h:
        if out and out[-1] == _inverse_letter(c):
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def _reduced_words(group):
    return st.lists(st.sampled_from(group.generators()), max_size=10).map(
        lambda letters: _ref_mul("", letters)
    )


@st.composite
def _word_pairs(draw, group):
    """Two reduced words that often share a suffix."""
    words = _reduced_words(group)
    tail = draw(words)
    return _ref_mul(draw(words), tail), _ref_mul(draw(words), tail)


class TestFreeGroupArithmetic:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @settings(max_examples=150)
    @given(data=st.data())
    def test_against_letter_reference(self, rank, data):
        F = FreeGroup(rank)
        g, h = data.draw(_word_pairs(F))
        assert F.inv(g) == _ref_inv(g)
        assert F.mul(g, h) == _ref_mul(g, h)
        assert F.mul(h, g) == _ref_mul(h, g)
        assert F.dist(g, h) == F.norm(_ref_mul(h, _ref_inv(g)))
        F.validate(F.mul(g, h))
        if g:
            with pytest.raises(ValueError):
                F.validate(g + _inverse_letter(g[-1]))


class TestAnnulus:
    @pytest.mark.parametrize(
        "group,d,expected",
        [(Z1, 1, 5), (Z1, 3, 13), (Z2, 1, 5), (F2, 1, 5)],
    )
    def test_frozen_values(self, group, d, expected):
        D, _w = annulus_D(group, d)
        assert D == expected

    def test_witness_reverifies(self):
        for g, d in ((Z1, 1), (Z1, 3), (Z2, 1), (F2, 1)):
            D, w = annulus_D(g, d)
            one = g.identity()
            ball = bfs_ball(g, w.center, d)
            assert all(2 * d < g.dist(one, x) <= D for x in ball)

    def test_minimality_z1(self):
        # D-1 admits no center: every candidate ball pokes out of the annulus
        D, _ = annulus_D(Z1, 1)
        for t in range(3, (D - 1) - 1 + 1):
            ball = Z1.ball(t, 1)
            assert not all(2 < abs(x) <= D - 1 for x in ball)

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            annulus_D(Z1, 40, budget=30)

    def test_negative_budget_is_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            annulus_D(Z1, 1, budget=-1)

    @pytest.mark.parametrize("d", [-1, "1"])
    def test_d_must_be_a_natural(self, d):
        with pytest.raises(ValueError, match=f"^d must be a nonnegative integer, got {re.escape(repr(d))}$"):
            annulus_D(Z1, d)


def _word_of_length(draw, group, n):
    word = ""
    for _ in range(n):
        word += draw(st.sampled_from([a for a in group.generators()
                                      if not word or a != _inverse_letter(word[-1])]))
    return word


@st.composite
def _packable_lists(draw, group):
    """Two lists of elements with |x| + |y| <= pack_limit for every x of the
    first and y of the second, often at that limit; on F_k the y's often
    cancel into some x."""
    room = draw(st.sampled_from([6, group.pack_limit]))
    split = draw(st.integers(0, room))
    sizes = st.integers(1, 3)
    if isinstance(group, FreeGroup):
        xs = [_word_of_length(draw, group, draw(st.integers(0, split))) for _ in range(draw(sizes))]
        ys = []
        for _ in range(draw(sizes)):
            x = draw(st.sampled_from(xs))
            c = draw(st.integers(0, min(len(x), room - split)))  # letters of x that y cancels
            tail = _word_of_length(draw, group, draw(st.integers(0, room - split - c)))
            ys.append(_ref_mul(_ref_inv(x[len(x) - c :]), tail))
        return xs, ys

    def element(budget):
        coords = []
        for _ in range(group.dimension):
            coords.append(draw(st.integers(-budget, budget)))
            budget -= abs(coords[-1])
        return coords[0] if group.dimension == 1 else tuple(coords)

    return ([element(split) for _ in range(draw(sizes))],
            [element(room - split) for _ in range(draw(sizes))])


class TestPackedArithmetic:
    @pytest.mark.parametrize("spec", _BALL_GROUPS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_against_scalar_arithmetic(self, spec, data):
        g = parse_group(spec)
        xs, ys = data.draw(_packable_lists(g))
        X, Y = g.pack(xs), g.pack(ys)
        products = g.mul_packed(X[:, None], Y[None, :])
        distances = g.dist_packed(X[:, None], Y[None, :])
        assert distances.dtype == np.int64
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                xy = g.mul(x, y)
                assert products[i, j].tolist() == g.pack([xy])[0].tolist()
                if isinstance(g, FreeGroup):
                    assert products[i, j].tolist() == [element_code(g, xy), len(xy), _fields(g, xy)]
                else:
                    assert products[i, j].tolist() == list(g.sort_key(xy))
                assert distances[i, j] == g.dist(x, y)
        assert g.dist_packed(products[:, :, None], products[:, None, :]).tolist() == [
            [[g.dist(g.mul(x, a), g.mul(x, b)) for b in ys] for a in ys] for x in xs
        ]

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_packable_length_boundary(self, rank):
        """Words of pack_limit letters pack as uint64 numerals, one letter
        more as Python ints; a product whose |a| + |b| passes pack_limit is
        formed in Python ints, and one at pack_limit exactly in uint64."""
        g = FreeGroup(rank)
        word = ("ab" * g.pack_limit if rank > 1 else "a" * g.pack_limit)[: g.pack_limit]
        X = g.pack([word])
        assert X.dtype == np.uint64 and X[0].tolist() == [element_code(g, word), g.pack_limit, _fields(g, word)]
        longer = g.pack(["", word + word[-1]])
        assert longer.dtype == object
        assert longer.tolist() == [[0, 0, 0], _packed_row(g, word + word[-1])]
        for x, y, exact in [(word, "a", True), ("a", word[1:], False), (word, word, True)]:
            xy = g.pack([x, y])  # two rows of uint64
            product = g.mul_packed(xy[0], xy[1])
            assert (product.dtype == object) == exact
            assert product.tolist() == _packed_row(g, g.mul(x, y))
            assert g.dist_packed(xy[0], xy[1]) == g.dist(x, y)

    @pytest.mark.parametrize(
        "spec, element, machine",
        [
            ("Z^1", 2**62 - 1, True),
            ("Z^1", -(2**62) + 1, True),
            ("Z^1", 2**62, False),
            ("Z^1", -(2**63), False),  # fits int64; its absolute value does not
            ("Z^1", 2**63, False),  # past int64
            ("Z^2", (2**61, 2**61 - 1), True),
            ("Z^2", (2**62, 2**62), False),
            ("Z^4", (-(2**63), -(2**63), -(2**63), -(2**63)), False),  # norms that wrap uint64
            ("Z^3", (2**64, 0, 0), False),
        ],
    )
    def test_int64_edge(self, spec, element, machine):
        """Coordinates pack as int64 while the norm is at most pack_limit,
        and as Python ints past it; a product with a generator at that
        norm passes pack_limit and is formed in Python ints."""
        g = parse_group(spec)
        packed = g.pack([g.identity(), element])
        assert (packed.dtype == np.int64) == machine
        assert packed.tolist() == [list(g.sort_key(g.identity())), list(g.sort_key(element))]
        assert g.dist_packed(packed[0], packed[1]) == g.dist(g.identity(), element)
        a = g.generators()[0]
        product = g.mul_packed(packed[1], g.pack([a])[0])
        assert product.dtype == object
        assert product.tolist() == list(g.sort_key(g.mul(element, a)))

    @pytest.mark.parametrize("rank", [17, 18, 26])
    def test_bases_past_36_pack(self, rank):
        """Numerals are formed by arithmetic, not read by int, so F_18 to
        F_26, whose bases pass the 36 digits int reads, pack too."""
        g = FreeGroup(rank)
        z, Z = g.generators()[-2:]
        words = ["", "a", Z, "a" + z * (g.pack_limit - 1), z * (g.pack_limit + 1), (Z + "a") * g.pack_limit]
        short = g.pack(words[:4])
        assert short.dtype == np.uint64
        assert short.tolist() == [[element_code(g, w), len(w), _fields(g, w)] for w in words[:4]]
        assert g.pack(words).tolist() == [_packed_row(g, w) for w in words]
        assert element_codes(g, words).tolist() == [element_code(g, w) for w in words]

    @pytest.mark.parametrize("spec", ["F_1", "F_2", "F_3", "F_4", "F_5", "F_18", "F_26", "Z^1", "Z^2", "Z^3"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_differential_against_scalar_references(self, spec, data):
        """``pack``, ``mul_packed``, ``dist_packed`` and ``element_codes``
        against ``mul``, ``dist`` and ``element_code``, on norms on both
        sides of pack_limit and past int64; products of machine rows are
        Python ints exactly when |a| + |b| passes pack_limit, on F_k often
        after cancelling. On F_k the rows carry the letter fields, words
        end where a uint64 of fields is full and one letter past it (on
        F_5 at pack_limit, all 64 bits), and the products' numerals and
        lengths and the distances are those of the numeral kernels the
        field kernels replaced."""
        g = parse_group(spec)
        xs, ys = data.draw(_lists_across_the_limit(g))
        X, Y = g.pack(xs), g.pack(ys)
        largest_x, largest_y = max(map(g.norm, xs)), max(map(g.norm, ys))
        assert (X.dtype == object) == (largest_x > g.pack_limit)
        assert X.tolist() == [_packed_row(g, x) for x in xs]
        products = g.mul_packed(X[:, None], Y[None, :])
        assert (products.dtype == object) == (largest_x + largest_y > g.pack_limit)
        distances = g.dist_packed(X[:, None], Y[None, :])
        assert distances.tolist() == [[g.dist(x, y) for y in ys] for x in xs]
        assert products.tolist() == [[_packed_row(g, g.mul(x, y)) for y in ys] for x in xs]
        if isinstance(g, FreeGroup):
            assert products[..., :2].tolist() == numeral_mul_packed(g, X[:, None], Y[None, :]).tolist()
            assert distances.tolist() == numeral_dist_packed(g, X[:, None], Y[None, :]).tolist()
        assert element_codes(g, X).tolist() == [element_code(g, x) for x in xs]
        flat = products.reshape(-1, products.shape[-1])
        assert element_codes(g, flat).tolist() == [element_code(g, g.mul(x, y)) for x in xs for y in ys]
        assert g.dist_packed(products[:, :, None], products[:, None, :]).tolist() == [
            [[g.dist(g.mul(x, a), g.mul(x, b)) for b in ys] for a in ys] for x in xs
        ]


def _numeral(g, word):
    """The base-(2k+1) numeral of an F_k word, in Python ints."""
    numeral = 0
    for c in word:  # letter i of "ab..AB.." is digit i + 1
        numeral = numeral * (2 * g.rank + 1) + "abcdefghijklmnopqrstuvwxyz".index(c.lower()) + 1
        numeral += g.rank if c.isupper() else 0
    return numeral


def _fields(g, word):
    """The b-bit letter fields of an F_k word, b = ceil(log2(2k)), in Python
    ints: letter i of "ab.." is i and its inverse i + 2^(b - 1), the last
    letter lowest."""
    bits, fields = (2 * g.rank - 1).bit_length(), 0
    for c in word:
        fields = fields << bits | "abcdefghijklmnopqrstuvwxyz".index(c.lower()) | c.isupper() << bits - 1
    return fields


def _packed_row(g, x):
    """The row of x in ``pack``'s form, in Python ints."""
    return [_numeral(g, x), len(x), _fields(g, x)] if isinstance(g, FreeGroup) else list(g.sort_key(x))


@st.composite
def _lists_across_the_limit(draw, group):
    """Two lists of elements whose norms lie on both sides of pack_limit and,
    on Z^d, past int64; often the second list's norms make |x| + |y| equal
    pack_limit, or one more, and on F_k its words often cancel into the
    first's; on F_k norms also end where a uint64 of b-bit letter fields is
    full, or one letter past it."""
    L = group.pack_limit
    if isinstance(group, FreeAbelian):
        far = [2**63, 2**64 + 3]
    else:
        full = 64 // (2 * group.rank - 1).bit_length()
        far = [2 * L + 1, full, full + 1]
    norm = st.one_of(st.integers(0, 6), st.sampled_from([L - 1, L, L + 1, *far]))
    xs = [_element_of_norm(draw, group, draw(norm)) for _ in range(draw(st.integers(1, 3)))]
    room = L - max(map(group.norm, xs))
    at_limit = [m for m in (room, room + 1) if m >= 0]
    ys = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.one_of(norm, st.sampled_from(at_limit)) if at_limit else norm)
        if isinstance(group, FreeGroup) and draw(st.booleans()):
            x = draw(st.sampled_from(xs))
            c = draw(st.integers(0, min(len(x), n)))  # letters of x that y cancels
            ys.append(_ref_mul(_ref_inv(x[len(x) - c :]), _word_of_length(draw, group, n - c)))
        else:
            ys.append(_element_of_norm(draw, group, n))
    return xs, ys


def _element_of_norm(draw, group, n):
    if isinstance(group, FreeGroup):
        return _word_of_length(draw, group, n)
    coords = []
    for _ in range(group.dimension - 1):
        coords.append(draw(st.integers(0, n)))
        n -= coords[-1]
    coords = [c if draw(st.booleans()) else -c for c in coords + [n]]
    return coords[0] if group.dimension == 1 else tuple(coords)


class TestBallSize:
    @pytest.mark.parametrize("spec", _BALL_GROUPS)
    def test_closed_form_equals_enumeration(self, spec):
        g = parse_group(spec)
        for r in range(-1, 7):
            assert ball_size(g, r) == len(identity_ball(g, r))


# (group, largest radius): F_1 crosses its pack_limit of 40 letters, and the
# bases 37 of F_18 and 53 of F_26 are past the 36 digits int reads
_PACKED_BALL_CASES = [("Z^1", 12), ("Z^2", 6), ("Z^3", 4), ("Z^4", 3), ("F_1", 44),
                      ("F_2", 4), ("F_3", 3), ("F_18", 2), ("F_26", 2)]


class TestPackedBall:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_codes_match_element_code(self, data):
        spec, max_r = data.draw(st.sampled_from(_PACKED_BALL_CASES))
        g = parse_group(spec)
        r = data.draw(st.integers(-1, max_r))
        norms, step, packed = g.ball_arrays(r)
        elements = g.decode_ball(norms, step, packed)
        assert (packed.dtype == object) == (r > g.pack_limit)
        assert packed.tolist() == g.pack(elements).tolist()
        if isinstance(g, FreeGroup):
            assert packed[:, 1].tolist() == norms.tolist()
        codes = element_codes(g, packed)
        assert codes.dtype == np.uint64
        assert codes.tolist() == [element_code(g, e) for e in elements]


# (group, radii): F_1 past its pack_limit of 40 letters, where the numerals
# are Python ints, and F_18, whose base 37 is past the digits int reads
_DECODE_CASES = [("Z^1", -2, 10), ("Z^2", -2, 6), ("Z^3", -1, 4), ("Z^4", -1, 3), ("F_1", -1, 8),
                 ("F_2", -1, 5), ("F_3", -1, 4), ("F_1", 41, 44), ("F_18", 0, 2)]


class TestDecodeBall:
    """The elements decoded from ``ball_arrays`` are the breadth-first ball:
    Z^d from its coordinates, F_k from its parents' words."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_breadth_first_reference(self, data):
        spec, lo, hi = data.draw(st.sampled_from(_DECODE_CASES))
        g, r = parse_group(spec), data.draw(st.integers(lo, hi))
        norms, step, packed = g.ball_arrays(r)
        assert (packed.dtype == object) == (r > g.pack_limit)
        assert g.decode_ball(norms, step, packed) == bfs_ball(g, g.identity(), r)


# The largest radius tested per dimension: 13,613 points at most (Z^2)
_LATTICE_RADII = {1: 200, 2: 82, 3: 18, 4: 8, 5: 6}


class TestLatticeBall:
    """``FreeAbelian.ball_arrays`` builds its order and generator table one
    dimension at a time from lattice-point counts; the lexsort-and-
    searchsorted construction it replaced (ball_reference.py) gives the
    same arrays, and ``lex_ball`` its points in lexicographic order."""

    @staticmethod
    def _assert_matches_sorted(g, r):
        for got, want in zip(g.ball_arrays(r), sorted_ball_arrays(g, r)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        lex = g.lex_ball(r)
        assert lex.dtype == want.dtype and lex.shape == want.shape
        assert np.array_equal(lex, want[np.lexsort(want.T[::-1])])

    @pytest.mark.parametrize("d", sorted(_LATTICE_RADII))
    def test_edge_radii_match_sorted_construction(self, d):
        for r in (-1, 0, 1, 2, _LATTICE_RADII[d]):
            self._assert_matches_sorted(FreeAbelian(d), r)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_sorted_construction(self, data):
        d = data.draw(st.sampled_from(sorted(_LATTICE_RADII)))
        self._assert_matches_sorted(FreeAbelian(d), data.draw(st.integers(-1, _LATTICE_RADII[d])))


@st.composite
def _lattice_ball_cases(draw):
    """(group, centre, radius) on Z^1-Z^4: radii negative, whole and
    rational, centres near the identity and past int64."""
    d = draw(st.integers(1, 4))
    near, far = st.integers(-6, 6), st.integers(-(10**30), 10**30)
    coords = [draw(st.one_of(near, far)) for _ in range(d)]
    r = Fraction(draw(st.integers(-3, 2 * _LATTICE_RADII[d] // 3)), draw(st.sampled_from([1, 2, 3])))
    return FreeAbelian(d), coords[0] if d == 1 else tuple(coords), r


class TestLatticeTranslate:
    """``Group.ball`` on Z^d, the identity ball translated coordinate-wise,
    is the breadth-first ball, centres past int64 included."""

    @settings(max_examples=120, deadline=None)
    @given(case=_lattice_ball_cases())
    def test_translates_breadth_first_ball(self, case):
        _assert_translates_breadth_first_ball(*case)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_edge_radii(self, d):
        g = FreeAbelian(d)
        for center in (g.identity(), g.element_at_distance(-(10**20))):
            for r in (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1, Fraction(7, 3), 5):
                _assert_translates_breadth_first_ball(g, center, r)


@st.composite
def _free_ball_cases(draw):
    """(group, centre, radius): the empty centre, F_1 centres on both sides
    of its pack_limit of 40 letters, and F_18, whose base 37 is past the
    36 digits int reads."""
    spec, top = draw(st.sampled_from([("F_1", 6), ("F_2", 4), ("F_3", 3), ("F_18", 2)]))
    g = parse_group(spec)
    words = _reduced_words(g)
    if spec == "F_1":
        words = st.one_of(words, st.integers(36, 46).flatmap(lambda n: st.sampled_from(["a" * n, "A" * n])))
    return g, draw(st.one_of(st.just(""), words)), draw(st.integers(-1, top))


class TestFreeBall:
    """``Group.ball`` on F_k is the right translate of the breadth-first
    identity ball, in its order, and holds the breadth-first ball about the
    centre, past pack_limit too; the ball CLI (test_cli.py) sorts it."""

    @settings(max_examples=100, deadline=None)
    @given(case=_free_ball_cases())
    def test_matches_breadth_first_reference(self, case):
        _assert_translates_breadth_first_ball(*case)


@pytest.mark.parametrize("r", [41, 43])
def test_offset_distances_past_the_packable_length(r):
    """F_1 offsets longer than 40 letters pack as Python ints, and D is dist's."""
    g = FreeGroup(1)
    ball = identity_ball(g, r)
    assert Region(g, r).slot_distances(r).tolist() == [[g.dist(a, b) for b in ball] for a in ball]


def _floor_bytes(g, r):
    """The generator table's bytes alone, with its sentinel column: int64
    as ``ball_arrays`` builds it on Z^d, and ``index_dtype`` as it builds it
    in place on F_k."""
    n = ball_size(g, r)
    cell = groups.index_dtype(n).itemsize if isinstance(g, FreeGroup) else 8
    return n * (len(g.generators()) + 1) * cell


class TestMemoryFloor:
    """Every case needs more than 1 TB for its table alone, so no machine
    this runs on allocates it; each must be refused before allocating."""

    @pytest.mark.parametrize(
        "g, r", [(FreeGroup(18), 7), (FreeAbelian(3), 10**6), (FreeAbelian(2), 10**6),
                 (FreeGroup(1), 10**12), (F2, 40), (F2, 10**9)]
    )
    def test_enumerations_refused(self, g, r):
        exponential = isinstance(g, FreeGroup) and g.rank > 1
        assert _floor_bytes(g, min(r, 40) if exponential else r) > 1 << 40  # sizes grow with r
        for enumerate_ball in (g.ball_arrays, lambda r: identity_ball(g, r),
                               lambda r: g.ball(g.identity(), r)):
            with pytest.raises(BudgetError, match="physical memory"):
                enumerate_ball(r)

    def test_axioms_audit_and_growth_refused(self):
        P = ProperColoring(FreeGroup(18), 3)
        assert _floor_bytes(P.group, 7) > 1 << 40
        with pytest.raises(BudgetError, match="physical memory"):
            ideal_axioms_check(P, 1, 0, radius=7, shift_radius=7)
        with pytest.raises(BudgetError, match="physical memory"):
            grow_random_member(P, random.Random(0), 3, radius=7)


def _least_memory(refuse, g, r):
    """The least physical memory at which ``refuse`` lets Ball(1, r) of g
    through, found by bisection on the reading."""
    lo, hi = 0, 1 << 64
    with pytest.MonkeyPatch.context() as mp:
        while lo < hi:
            mid = (lo + hi) // 2
            mp.setattr(groups, "physical_memory", lambda: mid)
            try:
                refuse(g, r)
                hi = mid
            except BudgetError:
                lo = mid + 1
    return lo


def _decoded_charge(g, r):
    return _least_memory(refuse_decoding, g, r)


def _arrays_charge(g, r):
    return _least_memory(groups._refuse_oversize, g, r)


_ROOT = Path(__file__).resolve().parents[1]

# Builds Ball(1, r) of argv[1] after a warm-up, decoded, as ``ball_arrays``
# or as a Region (argv[3]), and prints the growth in bytes of the process's
# peak resident set and the ball's size. The peak is VmHWM, not ru_maxrss,
# which Linux carries over from the parent through exec. Before the build,
# small objects (pymalloc's) and then larger ones (malloc's) are held until
# the resident set grows by 256 KiB each time, so the memory that imports
# freed but kept resident is taken, and the build's own memory lands on new
# pages. Without it, decoding Ball(1, 2) of F_26 grew the peak by only
# 32 KiB, 3% of its charge, and by nothing where imports had freed more.
_RATE_SCRIPT = """
import re, sys
from shiftcolor.groups import identity_ball, parse_group
from shiftcolor.simulate import Region
def status(field):
    with open("/proc/self/status") as f:
        return int(re.search(field + r":\\s*(\\d+) kB", f.read()).group(1)) * 1024
g, r = parse_group(sys.argv[1]), int(sys.argv[2])
build = {"decoded": identity_ball, "arrays": lambda g, r: g.ball_arrays(r)[0], "region": Region}[sys.argv[3]]
build(g, 1)
held = []
for size in (32, 2048):
    start = status("VmRSS")
    while status("VmRSS") < start + (1 << 18):
        held.extend(b"%d" % i + bytes(size) for i in range(64))
before = status("VmHWM")
n = len(build(g, r))
print(status("VmHWM") - before, n)
"""


def _peak_growth(spec, r, what):
    """(growth of the peak resident set, ball size) of building Ball(1, r)
    of spec, ``what`` ("decoded", "arrays" or "region"), in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", _RATE_SCRIPT, spec, str(r), what], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    return tuple(map(int, result.stdout.split()))


class TestArraysCharge:
    """``ball_arrays``, and so every Region, is charged a closed-form bound
    per point on its peak, above the table alone and below the decoded
    charge, and is refused before anything is allocated when the charge
    passes physical memory."""

    @pytest.mark.parametrize("spec, r", [("Z^1", 20_000), ("Z^3", 12), ("Z^10", 3), ("F_1", 2000),
                                         ("F_2", 8), ("F_26", 3)])
    def test_nothing_is_allocated_past_memory(self, monkeypatch, spec, r):
        g = parse_group(spec)
        charge = _arrays_charge(g, r)
        assert _floor_bytes(g, r) < charge < _decoded_charge(g, r) and charge > 1 << 20
        monkeypatch.setattr(groups, "physical_memory", lambda: charge - 1)
        tracemalloc.start()
        try:
            for build in (lambda: g.ball_arrays(r), lambda: Region(g, r)):
                with pytest.raises(BudgetError, match=re.escape(f"Ball(1, {r}) of {g.name} needs")):
                    build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        monkeypatch.setattr(groups, "physical_memory", lambda: charge)
        assert len(g.ball_arrays(r)[0]) == len(Region(g, r)) == ball_size(g, r)

    def test_f2_region_of_radius_16_refused_in_8_gib(self, monkeypatch):
        """Ball(1, 16) of F_2, 86,093,441 points, whose table alone fits in
        8 GiB, is charged past it and refused before anything is built."""
        assert _floor_bytes(F2, 16) < 8 << 30 < _arrays_charge(F2, 16)
        monkeypatch.setattr(groups, "physical_memory", lambda: 8 << 30)
        with pytest.raises(BudgetError, match=re.escape("Ball(1, 16) of F_2 needs")):
            Region(F2, 16)

    @pytest.mark.parametrize("spec, radii", [("Z^1", (100_000, 300_000)), ("Z^10", (4, 5)), ("F_2", (8, 10))])
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from Linux's /proc")
    def test_charge_covers_the_measured_rate(self, spec, radii):
        """In a fresh process, ``ball_arrays`` grows the peak resident set
        by at most the charge, at two sizes per group."""
        for r in radii:
            grown, n = _peak_growth(spec, r, "arrays")
            assert n == ball_size(parse_group(spec), r)
            assert 0 < grown <= _arrays_charge(parse_group(spec), r)

    @pytest.mark.parametrize("spec, radii", [("Z^10", (4, 6)), ("F_26", (2, 3))])
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from Linux's /proc")
    def test_charge_covers_a_region(self, spec, radii):
        """In a fresh process, a Region, its arrays and then its own index
        tables and code order, grows the peak resident set by at most the
        charge, at two sizes per group, in uint16 and in int32."""
        dtypes = []
        for r in radii:
            grown, n = _peak_growth(spec, r, "region")
            assert n == ball_size(parse_group(spec), r)
            assert 0 < grown <= _arrays_charge(parse_group(spec), r)
            dtypes.append(groups.index_dtype(n))
        assert dtypes == [np.uint16, np.int32]


class TestDecodedCharge:
    """Decoding a ball about the identity, by ``identity_ball``,
    ``Group.ball`` or ``Region.elements``, is charged a closed-form bound
    per point, which covers the table's charge, and is refused before
    anything is built or decoded when the charge passes physical memory."""

    @pytest.mark.parametrize("spec, r", [("Z^1", 30), ("Z^3", 4), ("F_1", 44), ("F_2", 5), ("F_26", 2)])
    def test_nothing_is_decoded_past_memory(self, monkeypatch, spec, r):
        g = parse_group(spec)
        region, charge = Region(g, r), _decoded_charge(g, r)
        assert charge > _floor_bytes(g, r)
        calls = []
        for name in ("ball_arrays", "decode_ball"):
            method = getattr(type(g), name)
            monkeypatch.setattr(type(g), name, lambda self, *a, m=method, n=name: calls.append(n) or m(self, *a))
        identity_ball.cache_clear()
        monkeypatch.setattr(groups, "physical_memory", lambda: charge - 1)
        for decode in (lambda: identity_ball(g, r), lambda: g.ball(g.identity(), r), lambda: region.elements):
            with pytest.raises(BudgetError, match="decoded .* physical memory"):
                decode()
        assert calls == []
        monkeypatch.setattr(groups, "physical_memory", lambda: charge)
        assert region.elements == list(identity_ball(g, r)) == bfs_ball(g, g.identity(), r)
        assert calls == ["decode_ball", "ball_arrays", "decode_ball"]

    def test_exhausting_balls_are_charged_past_memory(self):
        """``dseq F_2 4`` decodes Ball(1, 16) of F_2, 86,093,441 words, and
        ``ball F_1 a 100000`` Ball(1, 100000) of F_1, whose words hold
        100000 * 100001 letters; both table charges fit in 8 GB."""
        for g, r, words in ((F2, 16, 86_093_441), (FreeGroup(1), 100_000, 200_001)):
            assert ball_size(g, r) == words and _floor_bytes(g, r) < 8 << 30 < _decoded_charge(g, r)
        assert _decoded_charge(FreeGroup(1), 100_000) > 100_000 * 100_001

    @pytest.mark.parametrize("spec, radii", [("Z^1", (100_000, 300_000)), ("Z^10", (4, 5)),
                                             ("F_1", (1000, 2000)), ("F_2", (8, 10)), ("F_26", (2, 3))])
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from Linux's /proc")
    def test_charge_covers_the_measured_rate(self, spec, radii):
        """In a fresh process, decoding grows the peak resident set by at
        most the charge, at two sizes per group."""
        for r in radii:
            grown, n = _peak_growth(spec, r, "decoded")
            assert n == ball_size(parse_group(spec), r)
            assert 0 < grown <= _decoded_charge(parse_group(spec), r)
