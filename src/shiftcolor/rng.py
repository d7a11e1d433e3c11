"""Counter-based randomness for the window simulations.

Each random bit is a pure function of (seed, step, element): the element is
packed (or, when too large for 64 bits, hashed) into a 64-bit code, mixed
with the seed and step through a splitmix64 finalizer chain, and compared
against an exact rational threshold. Results are therefore independent of
iteration order and of the size of the region being sampled — the
properties the equivariance checks rely on.

Both a scalar path (plain ints) and a vectorized numpy path are provided and
produce bit-identical results.
"""

from __future__ import annotations

from fractions import Fraction

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


def element_codes(group: Group, elements) -> np.ndarray:
    """Vector of element codes as uint64, each equal to ``element_code``,
    of a sequence of elements or of their rows in ``Group.pack``'s form.

    F_k codes are the numerals, and the tagged hash past 64 bits. Z^d rows
    of int64 are zigzagged and packed, chained, or (past 21 bits a
    coordinate on Z^1..Z^3) hashed by the tagged chain, as whole arrays;
    rows of Python ints go through the scalar ``element_code``."""
    packed = elements if isinstance(elements, np.ndarray) else group.pack(elements)
    n = len(packed)
    if isinstance(group, FreeGroup):
        if packed.dtype != object:
            return packed[:, 0]
        numerals = packed[:, 0].tolist()
        return np.fromiter((c if c >> 64 == 0 else _unpacked_code([c]) for c in numerals), dtype=np.uint64, count=n)
    coords = packed.reshape(n, group.dimension)
    if coords.dtype == object:
        return np.fromiter((element_code(group, tuple(row) if group.dimension > 1 else row[0])
                            for row in coords.tolist()), dtype=np.uint64, count=n)
    zig = ((coords << 1) ^ (coords >> 63)).view(np.uint64)
    codes = np.zeros(n, dtype=np.uint64)
    if group.dimension > 3:  # a zigzagged int64 always fits 64 bits
        for column in zig.T:
            codes = _vector_splitmix64(codes ^ column)
        return codes
    every = np.zeros(n, dtype=np.uint64)  # the columns ORed, a column at a time
    for column in zig.T:
        codes = (codes << np.uint64(21)) | column
        every |= column
    far = every >> np.uint64(21) != 0
    if far.any():  # _unpacked_code's chain: each zigzag is one limb, so its words are 1, z
        chain = np.full(np.count_nonzero(far), splitmix64(_UNPACKED_TAG), dtype=np.uint64)
        for column in zig[far].T:
            chain = _vector_splitmix64(_vector_splitmix64(chain ^ np.uint64(1)) ^ column)
        codes[far] = chain
    return codes


def codes_hashed(group: Group, radius: int) -> bool:
    """Whether ``element_codes`` hashes a point of Ball(1, radius), so its
    codes could collide: on F_k where the largest numeral, base^T - 1,
    passes 64 bits, on Z^d for d >= 4, and on Z^1..Z^3 where the zigzag 2T
    passes 21 bits. Elsewhere the codes are bijective numerals or packed
    zigzags, so distinct."""
    if isinstance(group, FreeGroup):  # base^64 passes 2^64 for every base >= 3
        return (2 * group.rank + 1) ** min(max(radius, 0), 64) >> 64 != 0
    return group.dimension > 3 or (2 * radius) >> 21 > 0


def _threshold(p: Fraction) -> int:
    """Exact floor(p * 2^64)."""
    return (p.numerator << 64) // p.denominator


def bit(seed: int, step: int, code: int, p: Fraction) -> bool:
    """The Bernoulli(p) bit keyed by (seed, step, element code)."""
    return mix(seed, step, code) < _threshold(p)


def _vector_splitmix64(x: np.ndarray) -> np.ndarray:
    """``splitmix64`` of each word, in a new array: the first addition
    copies x, and every later operation updates that copy in place."""
    with np.errstate(over="ignore"):
        x = x + np.uint64(_GAMMA)
        x ^= x >> np.uint64(30)
        x *= np.uint64(_M1)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_M2)
        x ^= x >> np.uint64(31)
    return x


def bernoulli_mask(seed: int, step, codes: np.ndarray, p: Fraction) -> np.ndarray:
    """Vectorized ``bit``: for one step a mask shaped like ``codes``, for a
    sequence of steps one such mask per step, stacked. The heads
    ``mix(seed, step)`` of every step come from one splitmix64 pass over the
    steps mod 2^64, after the seed's link, or from the scalar ``mix`` for at
    most eight steps, where that pass costs more; the codes take the last
    link of every step's chain in a second pass."""
    steps = [step] if np.isscalar(step) else step
    shape = (len(steps), *codes.shape)
    threshold = _threshold(p)
    if threshold <= 0:
        masks = np.zeros(shape, dtype=bool)
    elif threshold >= 1 << 64:
        masks = np.ones(shape, dtype=bool)
    else:
        if len(steps) <= 8:  # one vector pass costs about eight mix calls
            heads = np.array([mix(seed, int(t)) for t in steps], dtype=np.uint64)
        else:
            steps = np.array([int(t) & _MASK for t in steps], dtype=np.uint64)
            heads = _vector_splitmix64(np.uint64(splitmix64(seed & _MASK)) ^ steps)
        heads = heads.reshape(-1, *[1] * codes.ndim)
        masks = _vector_splitmix64(codes ^ heads) < np.uint64(threshold)
    return masks[0] if np.isscalar(step) else masks


class RandomField:
    """Per-step iid Bernoulli(p) maps on a group, keyed by (seed, step,
    element). ``value`` answers single points; ``mask`` answers a whole
    region at once (same bits, vectorized)."""

    def __init__(self, group: Group, seed: int, p: Fraction):
        self.group, self.seed, self.p = group, int(seed), Fraction(p)
        if not 0 < self.p < 1:
            raise ValueError(f"support density must lie strictly between 0 and 1, got {self.p}")

    def value(self, step: int, element) -> bool:
        return bit(self.seed, step, element_code(self.group, element), self.p)

    def mask(self, steps, codes: np.ndarray) -> np.ndarray:
        """The masks of a sequence of steps over ``codes``, one row per
        step, from one splitmix64 pass (for one step, its mask alone)."""
        return bernoulli_mask(self.seed, steps, codes, self.p)
