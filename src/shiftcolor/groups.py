"""Finitely generated groups with right-invariant word metrics.

Two families are provided: free abelian groups Z^d (elements are integer
coordinate tuples, generators the ±unit vectors) and free groups F_k
(elements are reduced words over "a..z" with the matching capital letter
denoting the inverse generator). Both carry the word metric of the standard
symmetric generating set:

    dist(g, h) = word length of h * g^-1

which is right-invariant: dist(g*x, h*x) = dist(g, h). Closed balls are
finite (the metric is proper) and listed breadth-first, each layer sorted
canonically, so every downstream greedy procedure is deterministic. Ball(1, r)
is built from integer arrays (``ball_arrays``), refused before allocation
when it cannot fit in memory; every other ball is its right translate
Ball(g, r) = Ball(1, r)*g, re-sorted within each layer.

Elements also have a packed form, one row of an integer array per element,
on which products and distances are computed for many elements at once
(``pack``, ``mul_packed``, ``dist_packed``, ``distance_block``); the scalar
``mul`` and ``dist`` are their references. ``ball_arrays`` returns the ball
in that form: its coordinates on Z^d, and on F_k numerals filled a layer at
a time from each word's parent and first letter.

Also here: the closed-form ball sizes, and the packing searches producing
the radius sequences used by the distance-constrained ideals — minimal
d-sequences (two disjoint radius-d_c balls inside a single radius-d_{c+1}
ball) and minimal annulus radii D (the annulus (2d, D] around the identity
contains a radius-d ball).
"""

from __future__ import annotations

import os
import re
import string
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, groupby, repeat
from math import comb
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .radii import INF, Infinity, Radius, radius_floor


class BudgetError(RuntimeError):
    """A bounded search ran out of budget before reaching a conclusion."""


class Group:
    """Base class: a finitely generated group with a fixed symmetric
    generating set, canonical element forms, and the word metric."""

    name: str

    def identity(self):
        raise NotImplementedError

    def generators(self) -> list:
        """The symmetric generating set S (closed under inverse, no identity)."""
        raise NotImplementedError

    def mul(self, g, h):
        """Product g*h in canonical form."""
        raise NotImplementedError

    def inv(self, g):
        raise NotImplementedError

    def validate(self, g):
        """Raise ValueError if g is not a canonical element of this group."""
        raise NotImplementedError

    def norm(self, g) -> int:
        """Word length of g."""
        raise NotImplementedError

    def sort_key(self, g):
        """Canonical (serialization) order key."""
        raise NotImplementedError

    def element_to_json(self, g):
        raise NotImplementedError

    def element_from_json(self, obj):
        raise NotImplementedError

    # -- metric ---------------------------------------------------------

    def dist(self, g, h) -> int:
        """Word length of h*g^-1 (right-invariant)."""
        return self.norm(self.mul(h, self.inv(g)))

    def ball(self, center, r: Radius) -> list:
        """Closed ball {x : dist(center, x) <= r}, breadth-first, each layer
        sorted canonically. A rational radius acts as its floor. By right
        invariance it is Ball(1, r)*center, with w*center in layer |w|."""
        out = []
        for _t, layer in groupby(identity_ball(self, r), key=self.norm):
            out.extend(sorted((self.mul(w, center) for w in layer), key=self.sort_key))
        return out

    def ball_arrays(self, radius: int) -> tuple:
        """Ball(1, radius) as arrays, built with no loop over its elements:
        ``(elements, norms, step, packed)``. ``elements`` lists the ball
        breadth-first, each layer sorted by ``sort_key``; ``norms`` are their
        word lengths, ``step[i, k]`` the index of generators()[k] *
        elements[i] (n where that leaves the ball), and ``packed`` the ball
        in ``pack``'s form, None when radius > pack_limit. A negative radius
        gives the empty ball. Raises BudgetError, before allocating, when
        the ball and its table cannot fit in memory."""
        raise NotImplementedError

    def element_at_distance(self, t: int):
        """Some element at distance exactly t from the identity."""
        raise NotImplementedError

    # -- packed arrays ----------------------------------------------------

    pack_limit: int  # the largest norm of a packed element

    def pack(self, elements: Sequence, reach: int = 0) -> Optional[np.ndarray]:
        """The elements as the rows of one integer array, the form that
        ``mul_packed`` and ``dist_packed`` read, or None when some element x
        has |x| + reach > pack_limit. So the product of a packed element
        with any element of norm <= reach packs too."""
        return None

    def mul_packed(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """The products a*b of packed elements, packed, broadcast over every
        axis but the last; each |a| + |b| must be at most pack_limit."""
        raise NotImplementedError

    def dist_packed(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """dist(a, b) of packed elements as int64, broadcast like
        ``mul_packed``."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Group) and self.spec_string() == other.spec_string()

    def __hash__(self):
        return hash(self.spec_string())

    def __repr__(self):
        return f"{type(self).__name__}({self.spec_string()!r})"


class FreeAbelian(Group):
    """Z^d under addition; generators ±e_i; the word metric is the L1 norm.

    Elements of Z^1 are plain Python ints (matching their JSON form); higher
    dimensions use length-d tuples of ints.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self.name = f"Z^{dimension}"
        if dimension == 1:
            self._generators = [1, -1]
        else:
            gens = []
            for i in range(dimension):
                e = [0] * dimension
                e[i] = 1
                gens.append(tuple(e))
                e[i] = -1
                gens.append(tuple(e))
            self._generators = gens

    def identity(self):
        return 0 if self.dimension == 1 else (0,) * self.dimension

    def generators(self):
        return self._generators

    def validate(self, g):
        if self.dimension == 1:
            if isinstance(g, int) and not isinstance(g, bool):
                return
            raise ValueError(f"not a {self.name} element: {g!r}")
        if (
            not isinstance(g, tuple)
            or len(g) != self.dimension
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in g)
        ):
            raise ValueError(f"not a {self.name} element: {g!r}")

    def mul(self, g, h):
        if self.dimension == 1:
            return g + h
        return tuple(a + b for a, b in zip(g, h))

    def inv(self, g):
        if self.dimension == 1:
            return -g
        return tuple(-a for a in g)

    def norm(self, g):
        if self.dimension == 1:
            return abs(g)
        return sum(abs(a) for a in g)

    def dist(self, g, h):
        if self.dimension == 1:
            return abs(h - g)
        return sum(abs(b - a) for a, b in zip(g, h))

    def sort_key(self, g):
        return (g,) if self.dimension == 1 else g

    def ball_coords(self, radius: int) -> Tuple[np.ndarray, np.ndarray]:
        """Ball(1, radius) as int64 coordinate rows in ``ball_arrays``' order,
        and their norms."""
        # Ball_{d+1}(r) is {(x0, y) : y in Ball_d(r - |x0|)}, and each such
        # Ball_d(r - |x0|) is a prefix of the norm-sorted Ball_d(r), so every
        # dimension costs one gather and one lexsort by (norm, coordinates),
        # which is breadth-first order with layers sorted by sort_key.
        _refuse_oversize(self, radius)
        radius = max(radius, -1)
        k = np.arange(2 * radius + 1)
        norms = (k + 1) // 2
        coords = np.where(k % 2 == 1, -norms, norms)[:, None]  # 0, -1, 1, -2, 2, ...
        for _ in range(self.dimension - 1):
            sizes = np.bincount(norms, minlength=radius + 1).cumsum()
            x0 = np.arange(-radius, radius + 1)
            lengths = sizes[radius - np.abs(x0)]
            head = np.repeat(x0, lengths)
            tail = np.arange(len(head)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
            coords = np.column_stack([head, coords[tail]])
            norms = np.abs(head) + norms[tail]
            order = np.lexsort([*coords.T[::-1], norms])
            coords, norms = coords[order], norms[order]
        return coords, norms

    def ball_arrays(self, radius):
        coords, norms = self.ball_coords(radius)
        n, d = coords.shape
        # Table entries: each row's neighbours along the generators (±e_i in
        # order), found by searchsorted on the key norm * R^d + the digits
        # c_i + T + 1 in base R = 2T + 3, ascending in the ball's (norm,
        # coordinates) order, Python ints where they pass int64. A move by
        # ±e_i adds ±R^(d-1-i), and ±R^d as it grows or shrinks |c_i|.
        T, R = max(radius, 0), 2 * max(radius, 0) + 3
        dtype = np.int64 if (T + 2) * R**d <= 1 << 63 else object
        rows = coords.astype(dtype)
        keys = np.abs(rows).sum(axis=1) * R**d + sum((rows[:, i] + T + 1) * R ** (d - 1 - i) for i in range(d))
        wanted = np.column_stack([
            keys + (2 * grows - 1).astype(dtype) * R**d + sign * R ** (d - 1 - i)
            for i in range(d) for sign, grows in ((1, coords[:, i] >= 0), (-1, coords[:, i] <= 0))
        ])
        hit = np.minimum(np.searchsorted(keys, wanted), n - 1)
        step = np.where(keys[hit] == wanted, hit, n)
        columns = coords.T.tolist()
        return (columns[0] if d == 1 else list(zip(*columns))), norms, step, coords

    # Packed: int64 coordinate rows of L1 norm at most 2^62 - 1, so that the
    # distance of two packed elements fits int64.
    pack_limit = (1 << 62) - 1

    def pack(self, elements, reach=0):
        n, room = len(elements), self.pack_limit - reach
        if room < 0:
            return None
        try:
            coords = np.array(elements, dtype=np.int64).reshape(n, self.dimension)
        except OverflowError:  # a coordinate past int64
            return None
        norms = np.zeros(n, dtype=np.uint64)
        for column in np.abs(coords).view(np.uint64).T:  # |-2^63| reads 2^63 unsigned
            norms += column  # at most 2^62 + 2^63, so it cannot wrap
            if (norms > room).any():
                return None
        return coords

    def mul_packed(self, A, B):
        return A + B

    def dist_packed(self, A, B):
        return np.abs(B - A).sum(axis=-1)  # the L1 norm, as in dist

    def element_to_json(self, g):
        return g if self.dimension == 1 else list(g)

    def element_from_json(self, obj):
        if self.dimension == 1:
            if isinstance(obj, int) and not isinstance(obj, bool):
                return obj
            if (
                isinstance(obj, (list, tuple))
                and len(obj) == 1
                and isinstance(obj[0], int)
                and not isinstance(obj[0], bool)
            ):
                return obj[0]
            raise ValueError(f"not a {self.name} element: {obj!r}")
        if isinstance(obj, (list, tuple)) and len(obj) == self.dimension:
            g = tuple(obj)
            self.validate(g)
            return g
        raise ValueError(f"not a {self.name} element: {obj!r}")

    def element_at_distance(self, t):
        if self.dimension == 1:
            return t
        e = [0] * self.dimension
        e[0] = t
        return tuple(e)

    def spec_string(self):
        return self.name


_LOWER = string.ascii_lowercase
_UPPER = string.ascii_uppercase
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"  # the digits ``int`` reads, base <= 36


class FreeGroup(Group):
    """F_k; elements are reduced words: strings over the first k lowercase
    letters and their uppercase inverses ('A' is the inverse of 'a').
    The empty string is the identity. Canonical order is shortlex."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if rank > 26:
            raise ValueError("ranks above 26 are not supported (one letter per generator)")
        self.rank = rank
        self.name = f"F_{rank}"
        self._letters = _LOWER[:rank] + _UPPER[:rank]
        self._generators = [c for pair in zip(_LOWER[:rank], _UPPER[:rank]) for c in pair]
        # the longest words whose every numeral fits 64 bits: the largest L
        # with base^L <= 2^64, and base^t for t <= L, the powers numerals meet
        base, self.pack_limit = 2 * rank + 1, 0
        while base ** (self.pack_limit + 1) <= 1 << 64:
            self.pack_limit += 1
        self._powers = np.array([base**t for t in range(self.pack_limit + 1)], dtype=np.uint64)

    def identity(self):
        return ""

    def generators(self):
        return self._generators

    def validate(self, g):
        if not isinstance(g, str):
            raise ValueError(f"not a {self.name} element: {g!r}")
        for i, c in enumerate(g):
            if c not in self._letters:
                raise ValueError(f"letter {c!r} is not a generator of {self.name}")
            if i > 0 and g[i - 1] == c.swapcase():
                raise ValueError(f"word {g!r} is not reduced at position {i}")

    def mul(self, g, h):
        # Cancellation only happens at the seam of two reduced words.
        i = len(g)
        j = 0
        while i > 0 and j < len(h) and g[i - 1] == h[j].swapcase():
            i -= 1
            j += 1
        return g[:i] + h[j:]

    def inv(self, g):
        return g[::-1].swapcase()

    def norm(self, g):
        return len(g)

    def dist(self, g, h):
        # h * g^-1 cancels exactly the longest common suffix of g and h.
        k = 0
        n = min(len(g), len(h))
        while k < n and g[-1 - k] == h[-1 - k]:
            k += 1
        return len(g) + len(h) - 2 * k

    def sort_key(self, g):
        return (len(g), g)

    def ball_arrays(self, radius):
        # Layer t+1 prepends each letter, in ASCII order, to the words of
        # layer t it does not cancel, so it comes out in shortlex order. The
        # Cayley graph is a tree: gens[j] * x is x's child with first letter
        # gens[j], or x's parent (x without its first letter) when x starts
        # with the inverse letter gens[j ^ 1]. A child's numeral is its
        # parent's plus its first letter's digit times base^(t - 1), so the
        # numerals are filled a layer at a time when the words pack.
        _refuse_oversize(self, radius)
        gens = self._generators
        if radius < 0:
            nothing = np.zeros(0, dtype=np.int64)
            return [], nothing, nothing.reshape(0, len(gens)), np.zeros((0, 2), dtype=np.uint64)
        digit = np.array([self._letters.index(a) + 1 for a in gens], dtype=np.uint64)
        fits = radius <= self.pack_limit
        elements = [""]
        # per layer: the gens index of each word's first letter (-1 for the
        # identity), the index of its parent (the identity is its own), and
        # its numeral
        firsts, parents, numerals = [np.array([-1])], [np.array([0])], [np.zeros(1, dtype=np.uint64)]
        lo = 0
        for t in range(1, radius + 1):
            layer_first, hi = firsts[-1], len(elements)
            new_first, new_parent = [], []
            for j in sorted(range(len(gens)), key=gens.__getitem__):
                keep = lo + np.flatnonzero(layer_first != j ^ 1)
                elements.extend(map(gens[j].__add__, map(elements.__getitem__, keep.tolist())))
                new_first.append(np.full(len(keep), j))
                new_parent.append(keep)
            firsts.append(np.concatenate(new_first))
            parents.append(np.concatenate(new_parent))
            if fits:
                numerals.append(digit[firsts[-1]] * self._powers[t - 1] + numerals[-1][parents[-1] - lo])
            lo = hi
        first, parent = np.concatenate(firsts), np.concatenate(parents)
        norms = np.repeat(np.arange(radius + 1), [len(f) for f in firsts])
        n = len(elements)
        step = np.full((n, len(gens)), n, dtype=np.int64)
        child = np.arange(1, n)
        step[parent[child], first[child]] = child
        step[child, first[child] ^ 1] = parent[child]
        packed = np.column_stack([np.concatenate(numerals), norms.astype(np.uint64)]) if fits else None
        return elements, norms, step, packed

    # Packed: (numeral, length) rows of uint64, the numeral being the word
    # read in base 2k+1 with letter i of "ab..AB.." as digit i + 1 and the
    # last letter lowest, as in the element code. F_1 numerals reach 3^40 >
    # 2^63, hence uint64.

    def pack(self, elements, reach=0):
        base = 2 * self.rank + 1
        if base > len(_DIGITS):  # numerals are read by ``int``
            return None
        lengths = np.fromiter(map(len, elements), dtype=np.int64, count=len(elements))
        if lengths.max(initial=0) + reach > self.pack_limit:
            return None
        to_digits = str.maketrans(self._letters, _DIGITS[1:base])
        words = map(str.translate, compress(elements, lengths > 0), repeat(to_digits))
        numerals = np.zeros(len(elements), dtype=np.uint64)
        numerals[lengths > 0] = np.fromiter(map(int, words, repeat(base)), dtype=np.uint64)
        return np.column_stack([numerals, lengths.astype(np.uint64)])

    def mul_packed(self, A, B):
        # The first c letters of b cancel the last c letters of a exactly when
        # the c lowest digits of a are the inverses of b's c leading digits
        # (past a's end its digits are 0, which is no letter), and then a*b
        # is a without them followed by b[c:]: numeral(a) // base^c *
        # base^(|b| - c) + numeral(b) mod base^(|b| - c), of length |a| + |b|
        # - 2c. Digits d and (d + k - 1) mod 2k + 1 are inverse letters.
        # Division by the scalar base is fast in numpy and % is not, so
        # digits are taken as n - (n // base) * base.
        k, powers, base = self.rank, self._powers, np.uint64(2 * self.rank + 1)
        na, la = A[..., 0], A[..., 1].astype(np.int64)
        nb, lb = B[..., 0], B[..., 1].astype(np.int64)
        cancel = np.zeros(np.broadcast_shapes(na.shape, nb.shape), dtype=np.int64)
        matching = np.ones(cancel.shape, dtype=bool)
        rest = na
        for j in range(min(int(la.max(initial=0)), int(lb.max(initial=0)))):
            high = rest // base
            low, rest = rest - high * base, high  # a's letter j from the end
            lead = nb // powers[np.maximum(lb - 1 - j, 0)]
            lead -= lead // base * base  # b's letter j
            matching &= (low == (lead + (k - 1)) % (2 * k) + 1) & (j < lb)  # its inverse
            if not matching.any():
                break
            cancel += matching
        kept = powers[lb - cancel]
        numerals = na // powers[cancel] * kept + nb % kept
        return np.stack([numerals, (la + lb - 2 * cancel).astype(np.uint64)], axis=-1)

    def dist_packed(self, A, B):
        # as in dist: |a| + |b| - 2 (the length of the common suffix), which is
        # the count of equal low digits that are letters (not 0); digits are
        # taken as in mul_packed, until no pair still matches
        base = np.uint64(2 * self.rank + 1)
        na, nb = A[..., 0], B[..., 0]
        common = np.zeros(np.broadcast_shapes(na.shape, nb.shape), dtype=np.int64)
        matching = np.ones(common.shape, dtype=bool)
        while matching.any():
            high_a, high_b = na // base, nb // base
            low = na - high_a * base
            matching &= (low == nb - high_b * base) & (low != 0)
            common += matching
            na, nb = high_a, high_b
        return A[..., 1].astype(np.int64) + B[..., 1].astype(np.int64) - 2 * common

    def element_to_json(self, g):
        return g

    def element_from_json(self, obj):
        if obj == "1" or (type(obj) is int and obj == 1):
            return ""
        if isinstance(obj, str):
            self.validate(obj)
            return obj
        raise ValueError(f"not a {self.name} element: {obj!r}")

    def element_at_distance(self, t):
        return "a" * t

    def spec_string(self):
        return self.name


_GROUP_RE = re.compile(r"^\s*(Z\^([1-9][0-9]*)|F_([1-9][0-9]*))\s*$")


def parse_group(spec: str) -> Group:
    """Build a group from its spec string: "Z^d" or "F_k"."""
    if isinstance(spec, Group):
        return spec
    m = _GROUP_RE.match(spec) if isinstance(spec, str) else None
    if not m:
        raise ValueError(f"unrecognized group specification {spec!r} (expected 'Z^d' or 'F_k')")
    if m.group(2):
        return FreeAbelian(int(m.group(2)))
    return FreeGroup(int(m.group(3)))


@lru_cache(maxsize=8)
def identity_ball(group: Group, r: Radius) -> tuple:
    """Ball(1, r) as ``Group.ball_arrays`` lists it, cached: the package's one
    copy of the balls about the identity, a tuple so no caller can change it.
    A rational r acts as its floor; a negative one gives the empty ball."""
    if isinstance(r, Infinity):
        raise ValueError("cannot enumerate a ball of infinite radius")
    return tuple(group.ball_arrays(radius_floor(r))[0])


def ball_size(group: Group, r: int) -> int:
    """|Ball(1, r)| in closed form (0 for r < 0): 1 + k((2k-1)^r - 1)/(k-1) on
    F_k with k >= 2, 2r + 1 on F_1, and sum_i 2^i C(d, i) C(r, i) on Z^d,
    counting the points with i non-zero coordinates."""
    if r < 0:
        return 0
    if isinstance(group, FreeGroup):
        k = group.rank
        return 2 * r + 1 if k == 1 else 1 + k * ((2 * k - 1) ** r - 1) // (k - 1)
    d = group.dimension
    return sum(2**i * comb(d, i) * comb(r, i) for i in range(min(d, r) + 1))


def _refuse_oversize(group: Group, radius: int) -> None:
    """Raise BudgetError, before anything is allocated, when Ball(1, radius)
    with its generator table, (|gens| + 1) int64 per point, needs more bytes
    than the machine's physical memory. F_k balls with k >= 2 hold over
    2^radius points, so there a radius past the memory's bit length is
    refused without computing the size."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    huge = isinstance(group, FreeGroup) and group.rank > 1 and radius > memory.bit_length()
    if huge or ball_size(group, radius) * 8 * (len(group.generators()) + 1) > memory:
        raise BudgetError(f"Ball(1, {radius}) of {group.name} needs more than {memory} bytes "
                          "of physical memory")


# Pairs that dist_packed measures at once in a distance_block: its scratch
# arrays take 128 KB each, so distance tables barely move the peak memory.
_PAIR_CELLS = 1 << 14


def distance_block(group: Group, elements: Sequence, packed: Optional[np.ndarray],
                   rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """dist(elements[i], elements[j]) for i in rows and j in cols, an int64
    array of shape (len(rows), len(cols)): by ``dist_packed`` over
    ``packed``, the elements in ``pack``'s form, a block of rows at a time,
    or by ``dist`` where that is None."""
    if packed is None:
        D = [[group.dist(elements[i], elements[j]) for j in cols.tolist()] for i in rows.tolist()]
        return np.array(D, dtype=np.int64).reshape(len(rows), len(cols))
    D = np.empty((len(rows), len(cols)), dtype=np.int64)
    step = max(1, _PAIR_CELLS // max(len(cols), 1))
    for lo in range(0, len(rows), step):
        D[lo : lo + step] = group.dist_packed(packed[rows[lo : lo + step], None], packed[None, cols])
    return D


def set_dist(group: Group, a: Iterable, b: Iterable) -> Radius:
    """Minimum pairwise distance between two finite sets; INF when either is
    empty (the minimum over an empty collection is infinite)."""
    a = list(a)
    b = list(b)
    if not a or not b:
        return INF
    return min(group.dist(x, y) for x in a for y in b)


@dataclass(frozen=True)
class PackingWitness:
    """Certificate for one d-sequence step: two ball centers whose radius-d
    balls are disjoint and both contained in Ball(identity, enclosing)."""

    center_a: object
    center_b: object
    inner_radius: int
    enclosing_radius: int


@dataclass(frozen=True)
class DSequence:
    group: Group
    values: Tuple[int, ...]
    witnesses: Tuple[Optional[PackingWitness], ...]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def d_sequence(group, count: int, budget: int = 64) -> DSequence:
    """Minimal integers d_0 < d_1 < ... < d_count such that Ball(1, d_0) has
    at least two elements and, for each step, some two disjoint radius-d_c
    balls fit inside a single radius-d_{c+1} ball. Returns the sequence with
    one packing witness per step (None for the d_0 entry).

    Raises BudgetError when a step would need a radius beyond ``budget``.

    The search visits enclosing radii E in increasing order and, for each,
    the pairs (x, y) of Ball(1, E - d) in breadth-first order, returning the
    first pair more than 2d apart. It is pruned by the bound
    dist(x, y) <= |x| + |y|, which holds in any group: no E <= 2d can work,
    since two points of Ball(1, E - d) are then at most 2d apart, and since
    norms never decrease along the breadth-first order, the partners y of x
    with |y| <= 2d - |x| form a prefix that is skipped. Only pairs that
    cannot be witnesses are skipped and the visiting order is kept, so the
    first witness, hence every value and witness, is that of the all-pairs
    search.
    """
    group = parse_group(group)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    d0 = None
    for r in range(0, budget + 1):
        if len(identity_ball(group, r)) >= 2:
            d0 = r
            break
    if d0 is None:
        raise BudgetError(f"no radius <= {budget} gives a two-element ball in {group.name}")
    values = [d0]
    witnesses: List[Optional[PackingWitness]] = [None]
    for _ in range(count):
        d = values[-1]
        found = None
        for enclosing in range(2 * d + 1, budget + 1):
            # Ball(z, d) fits inside Ball(1, enclosing) iff |z| <= enclosing - d,
            # and two radius-d balls are disjoint iff their centers are > 2d apart.
            candidates = identity_ball(group, enclosing - d)
            norms = [group.norm(x) for x in candidates]
            for i, x in enumerate(candidates):
                start = max(i + 1, bisect_right(norms, 2 * d - norms[i]))
                for y in candidates[start:]:
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


@dataclass(frozen=True)
class AnnulusWitness:
    center: object
    inner_radius: int
    annulus_low: int
    annulus_high: int


def annulus_D(group, d: int, budget: int = 64) -> Tuple[int, AnnulusWitness]:
    """Minimal integer D such that {x : 2d < dist(1, x) <= D} contains a full
    radius-d ball, together with the witness center. Searches candidate
    centers at each feasible distance and verifies the containment by direct
    ball enumeration."""
    group = parse_group(group)
    if not isinstance(d, int) or d < 0:
        raise ValueError(f"d must be a nonnegative integer, got {d!r}")
    for D in range(2 * d + 1, budget + 1):
        for t in range(2 * d + 1, D - d + 1):
            z = group.element_at_distance(t)
            if all(2 * d < group.norm(w) <= D for w in group.ball(z, d)):
                return D, AnnulusWitness(z, d, 2 * d, D)
    raise BudgetError(
        f"annulus search for d={d} in {group.name} exceeded the radius budget {budget}"
    )
