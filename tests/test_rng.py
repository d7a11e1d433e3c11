"""Counter-based randomness: reproducible, keyed by (seed, step, element).

Laws under test:
1. The 64-bit finalizer matches the published reference outputs (state 0
   produces 0xE220A8397B1DCDAF, then 0x6E789E6AA1B965F4, ...).
2. Scalar and vectorized evaluation are bit-identical.
3. Element codes are injective on the balls the simulations touch; in-range
   elements are packed exactly, and elements too large to pack (which the
   packing once wrapped onto other elements' codes) get codes of their own.
4. Acceptance thresholds are exact binary fractions: p = 1/2 maps to 2^63.
5. Same key, same bit — across instances; different seeds decorrelate.
"""

import string
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftcolor.groups import FreeAbelian, FreeGroup
from shiftcolor.rng import (
    RandomField,
    bernoulli_mask,
    bit,
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


class TestBernoulli:
    def test_half_threshold_exact(self):
        from shiftcolor.rng import _threshold

        assert _threshold(Fraction(1, 2)) == 2**63
        assert _threshold(Fraction(1, 4)) == 2**62

    @given(
        seed=st.integers(0, 2**32), step=st.integers(0, 1000), n=st.integers(-100, 100)
    )
    @settings(max_examples=60)
    def test_scalar_vector_agree(self, seed, step, n):
        code = element_code(Z1, n)
        scalar = bit(seed, step, code, Fraction(1, 2))
        vec = bernoulli_mask(seed, step, np.array([code], dtype=np.uint64), Fraction(1, 2))
        assert bool(vec[0]) == scalar

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
