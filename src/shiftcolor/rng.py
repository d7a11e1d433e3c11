"""Counter-based randomness for the window simulations.

Each random bit is a pure function of (seed, step, element): the element is
packed (or, when too large to pack, hashed) into a 64-bit code, mixed with the seed and step through a splitmix64
finalizer chain, and compared against an exact rational threshold. Results
are therefore independent of iteration order and of the size of the region
being sampled — the properties the equivariance checks rely on.

Both a scalar path (plain ints) and a vectorized numpy path are provided and
produce bit-identical results.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from typing import Sequence

import numpy as np

from .groups import FreeAbelian, FreeGroup, Group

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer on a 64-bit word."""
    x = (x + _GAMMA) & _MASK
    x ^= x >> 30
    x = (x * _M1) & _MASK
    x ^= x >> 27
    x = (x * _M2) & _MASK
    x ^= x >> 31
    return x


def mix(*words: int) -> int:
    """Fold any number of 64-bit words into one, order-sensitively."""
    h = 0
    for w in words:
        h = splitmix64(h ^ (w & _MASK))
    return h


def _zigzag(n: int) -> int:
    return 2 * n if n >= 0 else -2 * n - 1


def _limbs(n: int) -> list:
    """A nonnegative integer as its count of 64-bit limbs, then the limbs,
    lowest first: distinct integers give distinct word lists."""
    limbs = [n & _MASK]
    while n >> 64:
        n >>= 64
        limbs.append(n & _MASK)
    return [len(limbs)] + limbs


# Leads the chain of every element too large to pack (ASCII "unpacked").
_UNPACKED_TAG = 0x756E7061636B6564


def _unpacked_code(numbers) -> int:
    """Code of an element too large to pack, given as nonnegative integers."""
    return mix(_UNPACKED_TAG, *(w for n in numbers for w in _limbs(n)))


def element_code(group: Group, g) -> int:
    """Stable 64-bit code of an element, independent of any region.

    Elements of Z^1..Z^3 whose zigzagged coordinates fit 21 bits each, and
    F_k words whose base-(2k+1) digit value fits 64 bits, are packed
    exactly; Z^d for d >= 4 chains its 64-bit zigzagged coordinates through
    splitmix64. Any other element is hashed by a chain led by a tag, so
    packing never wraps two elements onto one code."""
    if isinstance(group, FreeAbelian):
        coords = (g,) if group.dimension == 1 else g
        if group.dimension <= 3:
            code = 0
            for c in coords:
                z = _zigzag(c)
                if z >> 21:
                    return _unpacked_code(_zigzag(c) for c in coords)
                code = (code << 21) | z
            return code
        h = 0
        for c in coords:
            z = _zigzag(c)
            if z >> 64:
                return _unpacked_code(_zigzag(c) for c in coords)
            h = splitmix64(h ^ z)
        return h
    if isinstance(group, FreeGroup):
        base = 2 * group.rank + 1
        code = 0
        for ch in g:
            code = code * base + group._letters.index(ch) + 1
        return code if code >> 64 == 0 else _unpacked_code([code])
    raise ValueError(f"no element coding for group {group!r}")


_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def element_codes(group: Group, elements: Sequence) -> np.ndarray:
    """Vector of element codes as uint64, each equal to ``element_code``.

    Z^d elements whose coordinates fit int64 are zigzagged and packed (or
    chained) as whole arrays. F_k words (k <= 17) short enough to pack are
    read as base-(2k+1) numerals by ``int``, after ``str.translate`` maps
    each letter to its digit. Every other element, and every element of a
    sequence whose coordinates overflow int64, goes through the scalar
    ``element_code``."""
    n = len(elements)
    if isinstance(group, FreeAbelian):
        try:
            coords = np.array(elements, dtype=np.int64).reshape(n, group.dimension)
        except OverflowError:
            return np.array([element_code(group, g) for g in elements], dtype=np.uint64)
        zig = ((coords << 1) ^ (coords >> 63)).view(np.uint64)
        codes = np.zeros(n, dtype=np.uint64)
        if group.dimension <= 3:
            for column in zig.T:
                codes = (codes << np.uint64(21)) | column
            far = (zig >> np.uint64(21)).any(axis=1)
        else:  # a zigzagged int64 always fits 64 bits
            for column in zig.T:
                codes = _vector_splitmix64(codes ^ column)
            far = np.zeros(n, dtype=bool)
    elif isinstance(group, FreeGroup) and 2 * group.rank + 1 <= len(_DIGITS):
        base = 2 * group.rank + 1
        packable = 0  # the longest word length whose every numeral fits 64 bits
        while base ** (packable + 1) <= 1 << 64:
            packable += 1
        lengths = np.fromiter(map(len, elements), dtype=np.int64, count=n)
        far = lengths > packable
        short = (lengths > 0) & ~far
        to_digits = str.maketrans(group._letters, _DIGITS[1:base])
        numerals = map(str.translate, compress(elements, short), repeat(to_digits))
        codes = np.zeros(n, dtype=np.uint64)
        codes[short] = np.fromiter(map(int, numerals, repeat(base)), dtype=np.uint64,
                                   count=int(short.sum()))
    else:
        far = np.ones(n, dtype=bool)
        codes = np.zeros(n, dtype=np.uint64)
    for i in np.flatnonzero(far).tolist():
        codes[i] = element_code(group, elements[i])
    return codes


def _threshold(p: Fraction) -> int:
    """Exact floor(p * 2^64)."""
    return (p.numerator << 64) // p.denominator


def bit(seed: int, step: int, code: int, p: Fraction) -> bool:
    """The Bernoulli(p) bit keyed by (seed, step, element code)."""
    return mix(seed, step, code) < _threshold(p)


def _vector_splitmix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = x + np.uint64(_GAMMA)
        x = x ^ (x >> np.uint64(30))
        x = x * np.uint64(_M1)
        x = x ^ (x >> np.uint64(27))
        x = x * np.uint64(_M2)
        x = x ^ (x >> np.uint64(31))
    return x


def bernoulli_mask(seed: int, step: int, codes: np.ndarray, p: Fraction) -> np.ndarray:
    """Vectorized ``bit`` over an array of element codes."""
    h = np.full(codes.shape, np.uint64(0))
    for word in (seed, step):
        h = _vector_splitmix64(h ^ np.uint64(word & _MASK))
    h = _vector_splitmix64(h ^ codes)
    threshold = _threshold(p)
    if threshold >= 1 << 64:
        return np.ones(codes.shape, dtype=bool)
    return h < np.uint64(threshold)


class RandomField:
    """Per-step iid Bernoulli(p) maps on a group, keyed by (seed, step,
    element). ``value`` answers single points; ``mask`` answers a whole
    region at once (same bits, vectorized)."""

    def __init__(self, group: Group, seed: int, p: Fraction):
        p = Fraction(p)
        if not 0 < p < 1:
            raise ValueError(f"support density must lie strictly between 0 and 1, got {p}")
        self.group = group
        self.seed = int(seed)
        self.p = p

    def value(self, step: int, element) -> bool:
        return bit(self.seed, step, element_code(self.group, element), self.p)

    def mask(self, step: int, codes: np.ndarray) -> np.ndarray:
        return bernoulli_mask(self.seed, step, codes, self.p)
