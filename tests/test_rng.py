"""Counter-based randomness: reproducible, keyed by (seed, step, element).

Laws under test:
1. The 64-bit finalizer matches the published reference outputs (state 0
   produces 0xE220A8397B1DCDAF, then 0x6E789E6AA1B965F4, ...).
2. Scalar and vectorized evaluation are bit-identical: on codes across all
   of uint64 (above 2^63, F_k numerals, hashes of unpacked elements), for
   seeds and steps past 64 bits or negative, and for densities outside
   (0, 1), which the mask answers all-False or all-True before hashing.
3. Element codes are injective on the balls the simulations touch; in-range
   elements are packed exactly, and elements too large to pack (which the
   packing once wrapped onto other elements' codes) get codes of their own.
   ``codes_hashed`` says a ball holds a hashed code exactly where its
   extreme points' codes are hashed, on either side of every bound.
4. Acceptance thresholds are exact binary fractions: p = 1/2 maps to 2^63.
   A run's block of steps, drawn a chunk of codes at a time, mixes its
   heads once; heads are kept, read-only, for at most eight sequences.
5. Same key, same bit — across instances; different seeds decorrelate.
6. The field is iid Bernoulli(p) on every family: on regions of Z^1, Z^2
   and F_2 of about 4 * 10^4 points, at p = 1/2 and 1/8 and fixed seeds,
   the set bits of each step's mask, and of each pair of steps' masks
   jointly, lie within Hoeffding's bound of their means.
"""

import math
import string
from itertools import combinations
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shiftcolor.groups import _PAIR_CELLS, FreeAbelian, FreeGroup, Group, ball_size
from shiftcolor import rng
from shiftcolor.rng import (
    RandomField,
    _unpacked_code,
    bernoulli_mask,
    bit,
    codes_hashed,
    element_code,
    element_codes,
    mix,
    splitmix64,
)

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
Z3 = FreeAbelian(3)
Z4 = FreeAbelian(4)
F2 = FreeGroup(2)
F3 = FreeGroup(3)


def _packed(group, g):
    """The packing formula without any wrap: 21 bits per zigzagged
    coordinate on Z^1..Z^3, base-(2k+1) digits (a=1, b=2, ..., A=k+1, ...)
    on F_k."""
    if isinstance(group, FreeGroup):
        letters = string.ascii_lowercase[: group.rank] + string.ascii_uppercase[: group.rank]
        code = 0
        for ch in g:
            code = code * (2 * group.rank + 1) + letters.index(ch) + 1
        return code
    code = 0
    for c in (g,) if group.dimension == 1 else g:
        code = (code << 21) | (2 * c if c >= 0 else -2 * c - 1)
    return code


# Zigzagged coordinates fit 21 bits exactly on [-2^20, 2^20).
_in_range = st.integers(-(2**20), 2**20 - 1)


def _fk_words(group, max_size):
    def reduce(letters):
        out = []
        for c in letters:
            if out and out[-1] == c.swapcase():
                out.pop()
            else:
                out.append(c)
        return "".join(out)

    return st.lists(st.sampled_from(group.generators()), max_size=max_size).map(reduce)


class TestSplitmix:
    def test_reference_outputs(self):
        gamma = 0x9E3779B97F4A7C15
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(gamma) == 0x6E789E6AA1B965F4
        assert splitmix64((2 * gamma) % 2**64) == 0x06C45D188009454F

    def test_mix_regression(self):
        # frozen value of this implementation's keyed chain
        assert mix(1, 2, 3) == 0xD0734750FDE362B3

    def test_mix_order_sensitivity(self):
        assert mix(1, 2) != mix(2, 1)


class TestElementCodes:
    def test_injective_on_balls(self):
        for g, center, r in ((Z1, 0, 20), (Z2, (0, 0), 6), (F2, "", 4), (Z4, (0,) * 4, 3)):
            pts = g.ball(center, r)
            codes = [element_code(g, e) for e in pts]
            assert len(set(codes)) == len(pts)

    def test_z1_packing_is_zigzag(self):
        # nonnegative n -> 2n, negative n -> -2n-1, in the low 21 bits
        assert element_code(Z1, 0) == 0
        assert element_code(Z1, 1) == 2
        assert element_code(Z1, -1) == 1

    def test_fk_identity_is_zero(self):
        assert element_code(F2, "") == 0

    def test_other_groups_have_no_code(self):
        class Trivial(Group):
            def spec_string(self):
                return "1"

        with pytest.raises(ValueError, match=r"no element coding for group Trivial\('1'\)"):
            element_code(Trivial(), ())

    @settings(max_examples=60)
    @given(
        n=_in_range,
        pair=st.tuples(_in_range, _in_range),
        triple=st.tuples(_in_range, _in_range, _in_range),
        w2=_fk_words(F2, 40),
        w3=_fk_words(F3, 40),
    )
    def test_in_range_codes_match_packing_formula(self, n, pair, triple, w2, w3):
        assert element_code(Z1, n) == _packed(Z1, n)
        assert element_code(Z2, pair) == _packed(Z2, pair)
        assert element_code(Z3, triple) == _packed(Z3, triple)
        for g, w in ((F2, w2), (F3, w3)):
            if _packed(g, w) < 2**64:
                assert element_code(g, w) == _packed(g, w)

    def test_far_coordinates_do_not_reuse_codes(self):
        # 21-bit packing sent 2^20 (zigzag 2^21) onto 0, and Z^4's 64-bit
        # zigzag sent 2^63 onto 0 too
        assert _packed(Z1, 2**20) & (2**21 - 1) == 0
        assert element_code(Z1, 0) != element_code(Z1, 2**20)
        assert element_code(Z2, (0, 0)) != element_code(Z2, (2**20, 0))
        assert element_code(Z4, (0,) * 4) != element_code(Z4, (2**63, 0, 0, 0))
        assert element_code(Z1, 2**20 - 1) == _packed(Z1, 2**20 - 1)
        assert element_code(Z1, -(2**20)) == _packed(Z1, -(2**20))

    def test_long_words_do_not_reuse_codes(self):
        # two reduced 28-letter words whose base-5 values differ by exactly
        # 2^64, so packing modulo 2^64 gave them one code
        u = "AAAAAAbbbbbAbaababbAAbAbabaB"
        v = "aaaBaaaBaBaabbaaaBAbaaaBAbAA"
        F2.validate(u)
        F2.validate(v)
        assert _packed(F2, u) - _packed(F2, v) == 2**64
        assert element_code(F2, u) != element_code(F2, v)
        assert element_code(F2, v) == _packed(F2, v)

    def test_injective_across_the_packing_boundary(self):
        near = [n for k in (20, 21, 40, 63, 64, 100) for n in range(2**k - 40, 2**k + 40)]
        pts = sorted(set(Z1.ball(0, 50) + near + [-n for n in near]))
        assert len(set(element_codes(Z1, pts))) == len(pts)
        pts2 = [(x, y) for x in (0, 1, -1, 2**20, -(2**20), 2**63, 2**64) for y in (0, 1, 2**20, 2**70)]
        assert len({element_code(Z2, p) for p in pts2}) == len(pts2)
        words = F2.ball("", 3) + ["a" * n for n in range(20, 60)]
        words += [w + "b" * 30 for w in F2.ball("", 2) if not w.endswith("B")]
        assert len({element_code(F2, w) for w in words}) == len(words)

    def test_vector_matches_scalar(self):
        pts = F2.ball("", 3)
        vec = element_codes(F2, pts)
        assert list(vec) == [element_code(F2, e) for e in pts]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_vector_matches_scalar_across_the_packing_boundary(self, data):
        # Z^1..Z^3 pack coordinates in [-2^20, 2^20); Z^4 chains any int64;
        # F_1 packs words of up to 40 letters (3^40 < 2^64 < 3^41), F_2 up
        # to 27 (5^27 < 2^64 < 5^28). Coordinates past int64 send the whole
        # sequence through the scalar code.
        edge = st.sampled_from([2**20, -(2**20), 2**20 - 1, -(2**20) - 1, 2**63 - 1, -(2**63)])
        coord = st.one_of(st.integers(-3, 3), edge.flatmap(lambda c: st.integers(c - 2, c + 2)))
        g, element = data.draw(
            st.sampled_from(
                [
                    (Z1, coord),
                    (Z2, st.tuples(coord, coord)),
                    (Z3, st.tuples(coord, coord, coord)),
                    (Z4, st.tuples(coord, coord, coord, coord)),
                    (FreeGroup(1), st.integers(0, 45).flatmap(lambda n: st.sampled_from(["a" * n, "A" * n]))),
                    (F2, _fk_words(F2, 40)),
                    (F3, _fk_words(F3, 40)),
                ]
            )
        )
        pts = data.draw(st.lists(element, max_size=12))
        assert element_codes(g, pts).tolist() == [element_code(g, e) for e in pts]

    def test_vector_matches_scalar_at_named_boundaries(self):
        F1 = FreeGroup(1)
        cases = [
            (Z1, [0, 2**20 - 1, 2**20, -(2**20), -(2**20) - 1, 5]),
            (Z2, [(0, 0), (2**20, 0), (2**20 - 1, 0), (0, -(2**20) - 1)]),
            (Z1, [0, 2**64, -(2**70)]),  # past int64
            (F1, ["a" * 40, "a" * 41, "A" * 41, "A" * 60, ""]),
            (F2, ["ab" * 13 + "a", "ab" * 14, "B" * 28, "AAAAAAbbbbbAbaababbAAbAbabaB", ""]),
        ]
        for g, pts in cases:
            assert element_codes(g, pts).tolist() == [element_code(g, e) for e in pts]

    @pytest.mark.parametrize("g", [FreeGroup(1), F2, F3, FreeGroup(4), FreeGroup(5), FreeGroup(18), FreeGroup(26)])
    def test_hashed_rule_agrees_with_the_codes_on_f_k(self, g):
        """``codes_hashed(g, T)`` holds exactly where the word of T letters
        with the largest numeral, base^T - 1, is hashed by
        ``element_codes``: on either side of pack_limit, within which every
        word packs, and of the numeral's 64 bits, up to three letters past
        pack_limit, with no ball built."""
        assert not codes_hashed(g, g.pack_limit)
        for T in range(g.pack_limit - 1, g.pack_limit + 4):
            word = (string.ascii_lowercase[: g.rank] + string.ascii_uppercase[: g.rank])[-1] * T
            assert _packed(g, word) == (2 * g.rank + 1) ** T - 1
            assert codes_hashed(g, T) == (element_codes(g, [word])[0] != _packed(g, word))

    @pytest.mark.parametrize("g", [Z1, Z2, Z3, Z4])
    def test_hashed_rule_agrees_with_the_codes_on_z_d(self, g):
        """``codes_hashed(g, T)`` holds exactly where ``element_codes``
        hashes a point +-T e_i, whose zigzags 2T and 2T - 1 are the ball's
        largest: on Z^1..Z^3 from T = 2^20, whose zigzag 2^21 passes 21
        bits, and on Z^4 at every radius, with no ball built."""
        for T in (0, 1, 2**20 - 1, 2**20):
            rows = [tuple(sign * T * (i == j) for j in range(g.dimension)) for i in range(g.dimension)
                    for sign in (1, -1)]
            points = [row[0] for row in rows] if g.dimension == 1 else rows
            hashed = element_codes(g, points).tolist() != [_packed(g, x) for x in points]
            assert codes_hashed(g, T) == hashed == (g is Z4 or T == 2**20)

    def test_far_int64_rows_equal_the_scalar_code(self):
        """Rows of int64 with a coordinate past 21 zigzagged bits are hashed
        as arrays, by the tagged chain of the scalar code, row by row."""
        rng = np.random.default_rng(7)
        edge = [2**20 - 1, 2**20, 2**20 + 1, 2**40, 2**62 - 1, 0, 1]
        edge += [-c for c in edge] + [-(2**20) - 1]
        for g in (Z1, Z2, Z3):
            rows = np.concatenate([rng.choice(edge, size=(300, g.dimension)),
                                   rng.integers(-(2**62) + 1, 2**62, size=(50, g.dimension))])
            expected = [element_code(g, tuple(row) if g.dimension > 1 else row[0]) for row in rows.tolist()]
            assert element_codes(g, rows).tolist() == expected
            assert element_codes(g, rows.astype(object)).tolist() == expected


class TestBernoulli:
    def test_half_threshold_exact(self):
        from shiftcolor.rng import _threshold

        assert _threshold(Fraction(1, 2)) == 2**63
        assert _threshold(Fraction(1, 4)) == 2**62

    @given(
        seed=st.one_of(st.integers(0, 2**32), st.integers(-(2**70), -1), st.integers(2**64, 2**70)),
        step=st.one_of(st.integers(0, 1000), st.integers(-(2**70), -1), st.integers(2**64, 2**70)),
        codes=st.lists(
            st.one_of(
                st.integers(-100, 100).map(lambda n: element_code(Z1, n)),
                st.integers(0, 2**64 - 1),
                st.integers(2**63, 2**64 - 1),
                _fk_words(F2, 40).map(lambda w: element_code(F2, w)),  # numerals, and hashes past 27 letters
                st.lists(st.integers(0, 2**80), max_size=3).map(_unpacked_code),
            ),
            max_size=24,
        ),
        p=st.sampled_from(
            [Fraction(1, 2), Fraction(1, 3), Fraction(1, 8), Fraction(7, 8), Fraction(1, 2**64),
             Fraction(2**64 - 1, 2**64)]
        ),
    )
    @example(seed=-1, step=2**64, codes=[0, 2**63, 2**64 - 1], p=Fraction(1, 2))
    @settings(max_examples=100)
    def test_scalar_vector_agree(self, seed, step, codes, p):
        """The mask folds (seed, step) into the same chain as ``bit``'s, on
        any code and on seeds and steps past 64 bits."""
        vec = bernoulli_mask(seed, step, np.array(codes, dtype=np.uint64), p)
        assert vec.tolist() == [bit(seed, step, c, p) for c in codes]

    @pytest.mark.parametrize("seed, first", [(0, 0), (-1, 2**64 - 30), (2**70 + 3, -(2**70)), (17, 1000)])
    def test_heads_of_one_to_sixty_steps(self, seed, first):
        """Up to eight steps a call folds its heads with the scalar ``mix``,
        past that in one vector pass: on both sides the masks are
        ``bit``'s."""
        codes = np.array([0, 1, 2**63, 2**64 - 1, element_code(F2, "abAB"), _unpacked_code([2**70])],
                         dtype=np.uint64)
        for count in range(1, 61):
            steps = range(first, first + count)
            masks = bernoulli_mask(seed, steps, codes, Fraction(1, 3))
            assert masks.tolist() == [[bit(seed, t, c, Fraction(1, 3)) for c in codes.tolist()] for t in steps]

    def test_heads_once_per_block_of_steps(self, monkeypatch):
        """A run draws a block of steps over its codes a chunk at a time,
        a ``mask`` call a chunk, and mixes the block's heads once; heads
        are kept, read-only, for at most eight step sequences."""
        from shiftcolor import simulate
        from shiftcolor.ideals import ProperColoring

        config = simulate.SimulationConfig(ProperColoring(Z1, 3), 60, 2, 60, Fraction(1, 2), seed=1)
        whole = simulate.run(config).to_summary_jsonable(dump=True)
        monkeypatch.setattr(simulate, "_PAIR_CELLS", 59 * 8)  # 59 steps past warm-up, 8 codes a chunk
        masks = []
        mask = RandomField.mask
        monkeypatch.setattr(RandomField, "mask", lambda self, *args: masks.append(args) or mask(self, *args))
        rng._heads.cache_clear()
        assert simulate.run(config).to_summary_jsonable(dump=True) == whole
        assert [len(steps) for steps, _codes in masks] == [59] * 16  # 125 points
        assert rng._heads.cache_info()[:3] == (15, 1, 8)  # hits, misses, maxsize
        for first in range(20):
            bernoulli_mask(3, range(first, first + 9), np.zeros(2, dtype=np.uint64), Fraction(1, 2))
        assert rng._heads.cache_info().currsize == 8
        assert not rng._heads(3, (1, 2)).flags.writeable

    def test_density_outside_the_open_interval_answers_as_bit(self, monkeypatch):
        """p <= 0 gives no support and p >= 1 full support, as ``bit`` does
        (p < 0 once raised OverflowError), and without hashing a code."""
        codes = np.append(element_codes(Z1, Z1.ball(0, 20)), np.array([2**63, 2**64 - 1], dtype=np.uint64))
        expected = {p: [bit(3, 4, c, p) for c in codes.tolist()]
                    for p in (Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(3, 2))}

        def no_hashing(x):
            raise AssertionError("hashed the codes of a constant mask")

        monkeypatch.setattr(rng, "_vector_splitmix64", no_hashing)
        for p, bits in expected.items():
            mask = bernoulli_mask(3, 4, codes, p)
            assert mask.dtype == bool and mask.tolist() == bits
            assert bits == [p >= 1] * len(codes)

    def test_mask_of_a_chunk_peaks_at_two_words_a_cell(self):
        """The splitmix64 passes update one copy of the codes in place: a
        mask over _PAIR_CELLS codes, a chunk of a run's draw, peaks at 17
        bytes a cell at most under tracemalloc (the copy, one shifted
        temporary and the mask), with ``bit``'s bits."""
        codes = np.arange(_PAIR_CELLS, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        tracemalloc.start()
        try:
            mask = bernoulli_mask(5, 3, codes, Fraction(1, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * _PAIR_CELLS
        assert mask.tolist() == [bit(5, 3, c, Fraction(1, 3)) for c in codes.tolist()]

    def test_field_mask_equals_scalar_loop(self):
        field = RandomField(Z1, 42, Fraction(1, 3))
        pts = Z1.ball(0, 30)
        codes = element_codes(Z1, pts)
        mask = field.mask(7, codes)
        assert [bool(b) for b in mask] == [field.value(7, e) for e in pts]

    def test_reproducible_across_instances(self):
        a = RandomField(Z1, 5, Fraction(1, 2))
        b = RandomField(Z1, 5, Fraction(1, 2))
        assert a.value(3, 10) == b.value(3, 10)

    def test_seed_changes_bits(self):
        pts = Z1.ball(0, 200)
        codes = element_codes(Z1, pts)
        m0 = bernoulli_mask(0, 0, codes, Fraction(1, 2))
        m1 = bernoulli_mask(1, 0, codes, Fraction(1, 2))
        assert (m0 != m1).any()

    def test_density_sane(self):
        pts = Z1.ball(0, 2000)
        codes = element_codes(Z1, pts)
        mask = bernoulli_mask(0, 0, codes, Fraction(1, 8))
        assert 0.08 <= mask.mean() <= 0.17

    def test_p_bounds_validated(self):
        with pytest.raises(ValueError):
            RandomField(Z1, 0, Fraction(0))
        with pytest.raises(ValueError):
            RandomField(Z1, 0, Fraction(1))


# A sum S of n independent indicators of mean q strays from nq by t or
# more with probability at most 2 exp(-2 t^2 / n) (Hoeffding). At t =
# sqrt(n ln(2 / 10^-9) / 2) that bound is 10^-9, so an iid field fails
# one check at most once in 10^9 draws, and the 432 checks below together
# at most about 4.3 * 10^-7 of the time.
_FALSE_ALARM = 1e-9
_STEPS = [0, 1, 2, 3, 63, 64, 1000, 2**40]


def _hoeffding_slack(n: int) -> float:
    return math.sqrt(n * math.log(2 / _FALSE_ALARM) / 2)


class TestFieldStatistics:
    """Per step, the set bits of ``RandomField.mask`` over a region's codes
    number n p, and for each pair of steps the points set at both number
    n p^2, each within Hoeffding's slack at a 10^-9 false alarm."""

    @pytest.mark.parametrize("g, T", [(Z1, 20_000), (Z2, 140), (F2, 9)])
    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 8)])
    @pytest.mark.parametrize("seed", [0, 2024])
    def test_set_bits_per_step_and_per_pair_of_steps(self, g, T, p, seed):
        n = ball_size(g, T)
        assert 39_000 < n < 41_000
        masks = RandomField(g, seed, p).mask(_STEPS, element_codes(g, g.ball_arrays(T)[1]))
        assert masks.shape == (len(_STEPS), n)
        slack = _hoeffding_slack(n)
        for count in np.count_nonzero(masks, axis=1).tolist():
            assert abs(count - n * p) < slack
        for i, j in combinations(range(len(_STEPS)), 2):
            assert abs(np.count_nonzero(masks[i] & masks[j]) - n * p * p) < slack
