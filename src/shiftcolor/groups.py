"""Finitely generated groups with right-invariant word metrics.

Two families are provided: free abelian groups Z^d (elements are integer
coordinate tuples, generators the ±unit vectors) and free groups F_k
(elements are reduced words over "a..z" with the matching capital letter
denoting the inverse generator). Both carry the word metric of the standard
symmetric generating set:

    dist(g, h) = word length of h * g^-1

which is right-invariant: dist(g*x, h*x) = dist(g, h). Closed balls are
finite (the metric is proper). Ball(1, r) is listed breadth-first, each
layer sorted canonically, so every downstream greedy procedure is
deterministic. It is built from integer arrays (``ball_arrays``), and its
elements are decoded from those arrays only where they are read
(``decode_ball``); both are refused before allocation when they cannot fit
in memory. Every other ball is its right translate Ball(g, r) =
Ball(1, r)*g, in the order of Ball(1, r).

Elements also have a packed form, one row of an integer array per element,
on which products and distances are computed for many elements at once
(``pack``, ``mul_packed``, ``dist_packed``, ``distance_block``); the scalar
``mul`` and ``dist`` are their references. Rows are machine integers while
every norm is at most ``pack_limit``, and Python ints in object arrays past
it, on which the same numpy code is exact; ``mul_packed`` takes Python ints
itself where a product may pass ``pack_limit``. ``ball_arrays`` returns the
ball in that form: its coordinates on Z^d, and on F_k numerals filled a
layer at a time from each word's parent and first letter. ``decode_ball``
reads the elements back: Z^d points from their coordinates, F_k words from
the generator table.

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
from math import comb
from operator import add
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
        """Closed ball {x : dist(center, x) <= r}. By right invariance it is
        Ball(1, r)*center: w*center for w in ``identity_ball``'s order, so
        breadth-first, and on Z^d each layer sorted canonically. A rational
        radius acts as its floor."""
        return [self.mul(w, center) for w in identity_ball(self, r)]

    def ball_arrays(self, radius: int) -> tuple:
        """Ball(1, radius) as arrays, built with no loop over its elements
        and no element object: ``(norms, step, packed)``. The ball is listed
        breadth-first, each layer sorted by ``sort_key``: ``norms`` are its
        points' word lengths, ``step[i, k]`` the index of generators()[k] *
        x_i (n where that leaves the ball), and ``packed`` the ball in
        ``pack``'s form. ``decode_ball`` gives the elements themselves. A
        negative radius gives the empty ball. Raises BudgetError, before
        allocating, when its peak can pass memory (``_refuse_oversize``)."""
        raise NotImplementedError

    def decode_ball(self, norms: np.ndarray, step: np.ndarray, packed: np.ndarray) -> list:
        """The elements of the ball that ``ball_arrays`` gave as these
        arrays, in its order."""
        raise NotImplementedError

    def element_at_distance(self, t: int):
        """Some element at distance exactly t from the identity."""
        raise NotImplementedError

    # -- packed arrays ----------------------------------------------------

    pack_limit: int  # the largest norm of a row of machine integers

    def pack(self, elements: Sequence) -> np.ndarray:
        """The elements as the rows of one integer array, the form that
        ``mul_packed`` and ``dist_packed`` read: machine integers while
        every norm is at most pack_limit, and otherwise Python ints in an
        object array."""
        raise NotImplementedError

    def mul_packed(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """The products a*b of packed elements, packed, broadcast over every
        axis but the last: machine integers while every |a| + |b| is at most
        pack_limit, and Python ints otherwise."""
        raise NotImplementedError

    def dist_packed(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """dist(a, b) of packed elements, broadcast like ``mul_packed``:
        int64, or Python ints where rows of Z^d are."""
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
        return tuple(map(add, g, h))

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

    def lex_ball(self, radius: int) -> np.ndarray:
        """Ball(1, radius) as int64 coordinate rows in lexicographic (sort_key)
        order, which every translate keeps."""
        # Z^(k+1) in that order is the blocks x0 = -r..r, block x0 being the
        # points y of Ball_k(r) in its order with |x0| + |y| <= r
        _refuse_oversize(self, radius)
        x = np.arange(-radius, radius + 1)
        coords, norms = x[:, None], np.abs(x)
        for _ in range(self.dimension - 1):
            i, j = np.nonzero(np.abs(x)[:, None] + norms <= radius)
            coords, norms = np.concatenate((x[i, None], coords[j]), axis=1), np.abs(x[i]) + norms[j]
        return coords

    def ball_arrays(self, radius):
        # In order by construction, one dimension at a time, from Z^1: 0,
        # -1, 1, -2, 2, ..., where x has index 2|x| - [x < 0]. Layer t of
        # Z^(k+1) is the blocks x0 = -t..t, block (t, x0) being the points
        # (x0, y) with y in the radius-(t - |x0|) sphere of Z^k, a slice of
        # the Z^k ball in its order, so each layer is sorted by (x0, y). A
        # point's index is the start of block (|x0| + |y|, x0), looked up
        # by (|y|, x0), plus y's place in its sphere. ±e_0 keeps y and moves
        # x0; ±e_i for i >= 1 keeps x0 and moves y through the Z^k table,
        # whose mark n_k for a neighbour outside reads norm T + 1. Blocks
        # past layer T start at n, the mark in the new table.
        _refuse_oversize(self, radius)
        T = max(radius, -1)
        if T <= 0:  # no point, or the identity with every neighbour outside
            n = T + 1
            return (np.zeros(n, dtype=np.int64), np.ones((n, 2 * self.dimension), dtype=np.int64),
                    np.zeros((n, self.dimension), dtype=np.int64))
        # Z^1 in place, with no temporary past half a column: index k is x
        # = (k + 1) // 2, negated at odd k, and x + 1 and x - 1 sit at k + 2
        # and k - 2 for x > 0, k - 2 and k + 2 for x < 0, and 2 and 1 for x
        # = 0, save 1 + (-1) = 0 at index 0; past T, at the mark 2T + 1
        n = 2 * T + 1
        norms = np.arange(1, n + 1)
        norms //= 2
        coords = norms.reshape(n, 1).copy()
        coords[1::2] *= -1
        step = np.empty((n, 2), dtype=np.int64)
        step[0::2, 0] = np.arange(2, n + 2, 2)
        step[1::2, 0] = np.arange(-1, n - 2, 2)
        step[0::2, 1] = np.arange(-2, n - 2, 2)
        step[1::2, 1] = np.arange(3, n + 2, 2)
        step[1, 0], step[0, 1] = 0, 1
        np.minimum(step, n, out=step)
        for dim in range(1, self.dimension):
            if dim == 1:  # the (T + 1)^2 blocks, fewer than the Z^2 ball's points
                t = np.repeat(np.arange(T + 1), 2 * np.arange(T + 1) + 1)  # each block's layer
                x0 = np.arange(len(t)) - t * t - t
                r, column = t - np.abs(x0), x0 + T + 1  # each block's Z^k sphere radius, start_of column
                # each generator's move of x0, and the start_of column of x0 = 0
                shift = np.array([1, -1] + [0] * (2 * self.dimension - 2)) + (T + 1)
            sphere = np.bincount(norms, minlength=T + 1)
            first = np.cumsum(sphere) - sphere  # each Z^k sphere's first index
            lengths = sphere[r]
            n, starts = int(lengths.sum()), np.cumsum(lengths) - lengths
            head, tail = np.repeat(x0, lengths), np.arange(n) + np.repeat(first[r] - starts, lengths)
            start_of = np.full((T + 2, 2 * T + 3), n)  # [|y|, x0 + T + 1]
            start_of[r, column] = starts
            # per Z^k point and generator: the flat start_of index less
            # x0, and the place in its sphere, of y after the move
            ids = np.arange(len(norms))
            moved = np.concatenate((ids[:, None], ids[:, None], step), axis=1)
            key = np.concatenate((norms, [T + 1]))[moved] * (2 * T + 3) + shift[: 2 * dim + 2]
            place = np.concatenate((ids - first[norms], [0]))[moved]
            at = key.take(tail, axis=0)  # take gathers rows several times faster than key[tail]
            at += head[:, None]
            step = start_of.take(at)
            del at  # before the next (n, 2d) gather, which can take its place
            step += place.take(tail, axis=0)
            np.minimum(step, n, out=step)
            coords, norms = np.concatenate((head[:, None], coords.take(tail, axis=0)), axis=1), np.repeat(t, lengths)
        return norms, step, coords

    def decode_ball(self, norms, step, packed):
        columns = packed.T.tolist()  # the coordinate rows
        return columns[0] if self.dimension == 1 else list(zip(*columns))

    # Packed: coordinate rows, int64 while the L1 norm is at most 2^62 - 1,
    # so that the distance of two such rows fits int64.
    pack_limit = (1 << 62) - 1

    def pack(self, elements):
        exact = max(map(self.norm, elements), default=0) > self.pack_limit
        return np.array(elements, dtype=object if exact else np.int64).reshape(len(elements), self.dimension)

    def mul_packed(self, A, B):
        # int64 rows have |coordinates| <= pack_limit, so their sums fit. The
        # largest |a| + |b| is at most d times the largest |coordinates|,
        # read with no temporary array; the norms are summed only past that.
        AB = A + B
        rough = sum(max(int(X.max(initial=0)), -int(X.min(initial=0))) for X in (A, B)) * self.dimension
        if AB.dtype == object or rough <= self.pack_limit:
            return AB
        exact = sum(int(np.abs(X).sum(axis=-1).max(initial=0)) for X in (A, B))
        return AB if exact <= self.pack_limit else AB.astype(object)

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
        self._digit_of = np.zeros(128, dtype=np.uint64)  # each letter's digit, by its ASCII code
        self._digit_of[np.frombuffer(self._letters.encode(), dtype=np.uint8)] = np.arange(1, base)

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
        # numerals are filled a layer at a time.
        _refuse_oversize(self, radius)
        gens = self._generators
        if radius < 0:
            nothing = np.zeros(0, dtype=np.int64)
            return nothing, nothing.reshape(0, len(gens)), np.zeros((0, 2), dtype=np.uint64)
        powers = self._powers_to(radius)
        first, parent, numeral, norms = self._tree(radius, powers)
        n = len(first)
        step = np.full((n, len(gens)), n, dtype=np.int64)
        child = np.arange(1, n)
        step[parent[1:], first[1:]] = child
        step[child, first[1:] ^ 1] = parent[1:]
        del first, parent, child  # before the packed rows, which can take their place
        return norms, step, np.column_stack([numeral, norms.astype(powers.dtype)])

    def _tree(self, radius: int, powers: np.ndarray) -> tuple:
        """Per word of Ball(1, radius) in ball order: the gens index of its
        first letter (-1 for the identity), its parent's index (the identity
        is its own), its numeral and its length, built a layer at a time in
        lists that are gone when this returns, before the table is."""
        gens = self._generators
        digit = self._digit_of[[ord(a) for a in gens]].astype(powers.dtype)
        letter_order = sorted(range(len(gens)), key=gens.__getitem__)
        firsts, parents, numerals = [np.array([-1])], [np.array([0])], [np.zeros(1, dtype=powers.dtype)]
        lo = 0
        for t in range(1, radius + 1):
            layer_first = firsts[-1]
            keep = [lo + np.flatnonzero(layer_first != j ^ 1) for j in letter_order]
            firsts.append(np.repeat(letter_order, [len(k) for k in keep]))
            parents.append(np.concatenate(keep))
            numerals.append(digit[firsts[-1]] * powers[t - 1] + numerals[-1][parents[-1] - lo])
            lo += len(layer_first)
        norms = np.repeat(np.arange(radius + 1), [len(f) for f in firsts])
        return np.concatenate(firsts), np.concatenate(parents), np.concatenate(numerals), norms

    def decode_ball(self, norms, step, packed):
        # In ball order, each word but the identity is its first letter
        # followed by its parent's word. Its other neighbours are its
        # children, a layer further out, so its parent is the least entry of
        # its table row, by the generator inverse to that letter. Parents lie
        # in the layer before, so the words are decoded a run of one layer
        # and one first letter at a time, from the table alone.
        n = len(norms)
        if n <= 1:
            return [""] * n
        back = step[1:].argmin(axis=1)
        first, parents = back ^ 1, step[np.arange(1, n), back]
        cut = np.flatnonzero((first[1:] != first[:-1]) | (norms[2:] != norms[1:-1])) + 1
        bounds = [0, *cut.tolist(), n - 1]
        words = [""]
        for lo, hi, j in zip(bounds, bounds[1:], first[bounds[:-1]].tolist()):
            words.extend(map(self._generators[j].__add__, map(words.__getitem__, parents[lo:hi].tolist())))
        return words

    # Packed: (numeral, length) rows, the numeral being the word read in base
    # 2k+1 with letter i of "ab..AB.." as digit i + 1 and the last letter
    # lowest, as in the element code: uint64 (F_1 numerals reach 3^40 >
    # 2^63) up to pack_limit letters, and Python ints past that.

    def _powers_to(self, top: int) -> np.ndarray:
        """base^t for t <= top: the uint64 table while top <= pack_limit,
        and past it Python ints in an object array."""
        if top <= self.pack_limit:
            return self._powers
        return np.array([(2 * self.rank + 1) ** t for t in range(top + 1)], dtype=object)

    def pack(self, elements):
        # every letter's digit times base^(the letters after it in its word),
        # summed per word as differences of one running sum over all words,
        # in which a uint64 wrap cancels
        lengths = np.fromiter(map(len, elements), dtype=np.int64, count=len(elements))
        powers = self._powers_to(int(lengths.max(initial=0)))
        digits = self._digit_of[np.frombuffer("".join(elements).encode(), dtype=np.uint8)]
        ends = np.cumsum(lengths)
        sums = np.zeros(len(digits) + 1, dtype=powers.dtype)
        np.cumsum(digits.astype(powers.dtype) * powers[np.repeat(ends, lengths) - np.arange(1, len(digits) + 1)],
                  out=sums[1:])
        return np.stack([sums[ends] - sums[ends - lengths], lengths.astype(powers.dtype)], axis=-1)

    def mul_packed(self, A, B):
        # The first c letters of b cancel the last c letters of a exactly when
        # the c lowest digits of a are the inverses of b's c leading digits
        # (past a's end its digits are 0, which is no letter), and then a*b
        # is a without them followed by b[c:]: numeral(a) // base^c *
        # base^(|b| - c) + numeral(b) mod base^(|b| - c), of length |a| + |b|
        # - 2c. Digits d and (d + k - 1) mod 2k + 1 are inverse letters.
        # Division by the scalar base is fast in numpy and % is not, so
        # digits are taken as n - (n // base) * base. Numerals that may pass
        # 64 bits are Python ints.
        k, base = self.rank, 2 * self.rank + 1
        la, lb = A[..., 1].astype(np.int64), B[..., 1].astype(np.int64)
        most_a, most_b = int(la.max(initial=0)), int(lb.max(initial=0))
        dtype = object if object in (A.dtype, B.dtype) or most_a + most_b > self.pack_limit else np.uint64
        powers = self._powers_to(max(most_a, most_b)).astype(dtype, copy=False)
        na, nb = A[..., 0].astype(dtype, copy=False), B[..., 0].astype(dtype, copy=False)
        cancel = np.zeros(np.broadcast_shapes(na.shape, nb.shape), dtype=np.int64)
        matching = np.ones(cancel.shape, dtype=bool)
        rest = na
        for j in range(min(most_a, most_b)):
            high = rest // base
            low, rest = rest - high * base, high  # a's letter j from the end
            lead = nb // powers[np.maximum(lb - 1 - j, 0)]
            lead -= lead // base * base  # b's letter j
            matching &= (low == (lead + (k - 1)) % (2 * k) + 1) & (j < lb)  # its inverse
            if not matching.any():
                break
            cancel += matching
        kept = powers[lb - cancel]
        out = np.empty((*cancel.shape, 2), dtype=dtype)  # numpy reads 0-d object results as scalars
        out[..., 0] = na // powers[cancel] * kept + nb % kept
        out[..., 1] = la + lb - 2 * cancel
        return out

    def dist_packed(self, A, B):
        # as in dist: |a| + |b| - 2 (the length of the common suffix), which is
        # the count of equal low digits that are letters (not 0); digits are
        # taken as in mul_packed, until no pair still matches
        base = 2 * self.rank + 1  # Python ints meet machine ones as Python ints
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
    """Ball(1, r) as ``Group.ball_arrays`` lists it, decoded by
    ``Group.decode_ball`` and cached: the package's one copy of the balls
    about the identity, a tuple so no caller can change it. A rational r
    acts as its floor; a negative one gives the empty ball. Refused by
    ``refuse_decoding`` before anything is built."""
    if isinstance(r, Infinity):
        raise ValueError("cannot enumerate a ball of infinite radius")
    refuse_decoding(group, radius_floor(r))
    return tuple(group.decode_ball(*group.ball_arrays(radius_floor(r))))


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


def physical_memory() -> int:
    """The machine's physical memory in bytes, the one reading that memory
    bounds are judged against."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def index_dtype(n: int) -> np.dtype:
    """The narrowest of uint16, int32 and int64 that holds the indices 0..n
    of an n-point region, n being its sentinel: uint16 below 2^16 points."""
    return np.dtype(np.uint16 if n < 1 << 16 else np.int32 if n < 1 << 31 else np.int64)


def _ball_bytes(group: Group, radius: int, decoded: bool) -> int:
    """Bytes of Ball(1, radius): a closed-form bound on the peak of
    ``ball_arrays`` and a ``Region`` built from them, or with ``decoded``
    of those and ``decode_ball``, per point: on Z^d the arrays are the
    (n, 2d) int64 gathers and the coordinate rows, 96d + 48, and decoded
    the same arrays with d int objects, a d-tuple and list slots, 104d +
    80. On F_k the arrays are the table, the per-layer index lists,
    numerals and norms, 16k + 128, and decoded list slots and the word too,
    a str of 49 bytes and its letters, 16k + 160 + radius; both hold
    numerals of Python ints past pack_limit. The Region adds its generator
    table and the codes' order, 2d + 1 or 2k + 1 cells of ``index_dtype``,
    and 24 for the codes, their int64 argsort and the codes in that order.
    A quarter more covers the allocators' overhead."""
    n = ball_size(group, radius)
    if isinstance(group, FreeGroup):
        k, point = group.rank, 16 * group.rank + (160 + radius if decoded else 128)
        if radius > group.pack_limit:
            point += 64 + radius * (2 * group.rank + 1).bit_length() // 8
    else:
        k, point = group.dimension, (104 if decoded else 96) * group.dimension + (80 if decoded else 48)
    point += (2 * k + 1) * index_dtype(n).itemsize + 24
    return n * (point + point // 4)


def _refuse_oversize(group: Group, radius: int) -> None:
    """Raise BudgetError, before anything is allocated, when ``ball_arrays``
    of Ball(1, radius), and a Region built from them, can peak past the
    machine's physical memory, at ``_ball_bytes``. F_k balls with k >= 2
    hold over 2^radius points, so there a radius past the memory's bit
    length is refused without computing the size."""
    memory = physical_memory()
    huge = isinstance(group, FreeGroup) and group.rank > 1 and radius > memory.bit_length()
    if huge or _ball_bytes(group, radius, decoded=False) > memory:
        raise BudgetError(f"Ball(1, {radius}) of {group.name} needs more than {memory} bytes "
                          "of physical memory")


def refuse_decoding(group: Group, radius: int) -> None:
    """Raise BudgetError, before anything is built, when decoding Ball(1,
    radius) can need more bytes than physical memory, at ``_ball_bytes``
    decoded. The arrays' own charge comes first."""
    _refuse_oversize(group, radius)
    memory = physical_memory()
    if _ball_bytes(group, radius, decoded=True) > memory:
        raise BudgetError(f"the decoded Ball(1, {radius}) of {group.name} needs more than {memory} bytes "
                          "of physical memory")


# Pairs that dist_packed measures at once in a distance_block: its scratch
# arrays take 128 KB each, so distance tables barely move the peak memory.
_PAIR_CELLS = 1 << 14


def distance_block(group: Group, packed: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """dist(x_i, x_j) for i in rows and j in cols, of the elements x that
    ``packed`` holds in ``pack``'s form, an int64 array of shape (len(rows),
    len(cols)): by ``dist_packed``, a block of rows at a time."""
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
    if budget < 0:
        raise ValueError(f"radius budget must be nonnegative, got {budget}")
    d0 = next((r for r in range(budget + 1) if ball_size(group, r) >= 2), None)
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
    if budget < 0:
        raise ValueError(f"radius budget must be nonnegative, got {budget}")
    for D in range(2 * d + 1, budget + 1):
        for t in range(2 * d + 1, D - d + 1):
            z = group.element_at_distance(t)
            if all(2 * d < group.norm(w) <= D for w in group.ball(z, d)):
                return D, AnnulusWitness(z, d, 2 * d, D)
    raise BudgetError(
        f"annulus search for d={d} in {group.name} exceeded the radius budget {budget}"
    )
