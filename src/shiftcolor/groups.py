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
``mul`` and ``dist`` are their references. A Z^d row is the coordinates.
An F_k row is (numeral, length, fields): the base-(2k+1) numeral that
element codes read, the word's length, and the word as b-bit letter
fields, on which a distance is one XOR and a trailing-zero count and a
product a few shifts and masks. Rows are machine integers while every norm
is at most ``pack_limit``, and Python ints in object arrays past it, on
which the same numpy code is exact; ``mul_packed`` takes Python ints
itself where a product may pass ``pack_limit``. ``ball_arrays`` returns the
ball in that form beside its generator table (``Group``): its coordinates
on Z^d, and on F_k rows filled a range of parents at a time, each word
from its parent and first letter. ``decode_ball`` reads the elements
back from the rows alone: Z^d points from their coordinates, F_k words
from their parents' words, by the same ranges. Indices are read from the
same layout: of coordinate rows by ``FreeAbelian.ball_index``, and of
every point times a letter by ``FreeGroup.right_table``.

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
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .radii import INF, Infinity, Radius, radius_floor
from .reports import Report


class BudgetError(RuntimeError):
    """A bounded search ran out of budget before reaching a conclusion."""


class Group:
    """Base class: a finitely generated group with a fixed symmetric
    generating set, canonical element forms, and the word metric. Each
    family sets ``name`` and ``pack_limit`` and defines, one line a method:

    - ``identity()``: the identity element.
    - ``generators()``: the symmetric generating set S (closed under inverse, no identity).
    - ``mul(g, h)``: the product g*h in canonical form.
    - ``inv(g)``: the inverse of g.
    - ``validate(g)``: raise ValueError unless g is a canonical element.
    - ``norm(g)``: the word length of g.
    - ``sort_key(g)``: the canonical (serialization) order key.
    - ``element_to_json(g)``: g's JSON form.
    - ``element_from_json(obj)``: the element of that JSON form; ValueError if malformed.
    - ``ball_arrays(radius)``: Ball(1, radius) as arrays ``(table, packed)``, see below.
    - ``decode_ball(packed)``: the elements of those packed rows, in their order.
    - ``element_at_distance(t)``: some element at distance exactly t from the identity.
    - ``pack(elements)``: the elements as the rows of one integer array.
    - ``mul_packed(A, B)``: the products a*b of packed rows, packed.
    - ``dist_packed(A, B)``: dist(a, b) of packed rows.
    - ``spec_string()``: the group's spec, which ``parse_group`` reads back.

    ``ball_arrays`` builds the ball with no element object, breadth-first
    and each layer sorted by ``sort_key``, so the points of norm at most t
    are its first ``ball_size(t)``. ``table`` is the generator table, a
    row per generator in ``index_dtype(n)``, of shape (|S|, n + 1):
    ``table[k, i]`` is the index of generators()[k] * x_i, or n where that
    leaves the ball, as in the sentinel column n. ``packed`` holds the
    rows of ``pack``. A negative radius gives the empty ball; BudgetError
    comes before allocating when the peak can pass memory
    (``refuse_ball``). Packed arguments broadcast over every axis but the
    last."""

    name: str
    pack_limit: int  # the largest norm of a row of machine integers

    def dist(self, g, h) -> int:
        """Word length of h*g^-1 (right-invariant)."""
        # both families override it; perfbench/tracer.py counts calls by this name
        return self.norm(self.mul(h, self.inv(g)))

    def ball(self, center, r: Radius) -> list:
        """Closed ball {x : dist(center, x) <= r}. By right invariance it is
        Ball(1, r)*center: w*center for w in ``identity_ball``'s order, so
        breadth-first, and on Z^d each layer sorted canonically. A rational
        radius acts as its floor."""
        return [self.mul(w, center) for w in identity_ball(self, r)]

    def __eq__(self, other):
        return isinstance(other, Group) and self.spec_string() == other.spec_string()

    def __hash__(self):
        return hash(self.spec_string())

    def __repr__(self):
        return f"{type(self).__name__}({self.spec_string()!r})"


def _plain_int(c) -> bool:
    return isinstance(c, int) and not isinstance(c, bool)


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
        if not (_plain_int(g) if self.dimension == 1 else
                isinstance(g, tuple) and len(g) == self.dimension and all(map(_plain_int, g))):
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
        refuse_ball(self, radius)
        x = np.arange(-radius, radius + 1)
        coords, norms = x[:, None], np.abs(x)
        for _ in range(self.dimension - 1):
            i, j = np.nonzero(np.abs(x)[:, None] + norms <= radius)
            coords, norms = np.concatenate((x[i, None], coords[j]), axis=1), np.abs(x[i]) + norms[j]
        return coords

    def _blocks(self, T: int):
        """Ball(1, T) of Z^(k+1), for k = 1..d-1 in turn, as its blocks in
        order: block (t, x0), for t = 0..T and x0 = -t..t, is the points
        (x0, y) with y in the radius-(t - |x0|) sphere of Z^k; it is block
        t^2 + t + x0. Yields each block's t, x0, Z^k radius r = t - |x0|
        and length, each Z^k sphere's first index, and each block's start."""
        if self.dimension == 1:  # no block to yield
            return
        t = np.repeat(np.arange(T + 1), 2 * np.arange(T + 1) + 1)
        x0 = np.arange(len(t)) - t * t - t
        r = t - np.abs(x0)
        sphere = np.where(np.arange(T + 1), 2, 1)  # Z^1's: 1, 2, 2, ...
        for _ in range(1, self.dimension):
            lengths = sphere[r]
            ends = np.cumsum(lengths)
            yield t, x0, r, lengths, np.cumsum(sphere) - sphere, ends - lengths
            sphere = np.diff(np.append(0, ends)[np.arange(T + 2) ** 2])

    def ball_index(self, coords: np.ndarray, radius: int) -> np.ndarray:
        """Each coordinate row's index in ``ball_arrays(radius)``'s order, or
        the ball's size, the sentinel, where its norm passes radius: int64,
        from rows of int64 or of Python ints, read a column at a time. On
        Z^1 x has index 2|x| - [x < 0], and on Z^(k+1) (x0, y) is y's place
        in its Z^k sphere, its index less B_k(|y| - 1), past the start of
        block (t, x0) = (|x0| + |y|, x0) (``_blocks``), read from the ball
        sizes B: B_(k+1)(t - 1) + B_k(t + x0 - 1) for x0 <= 0, and
        B_(k+1)(t - 1) + B_k(t) + B_k(t - 1) - B_k(t - x0) for x0 > 0."""
        index = np.full(len(coords), ball_size(self, radius), dtype=np.int64)
        inside = np.flatnonzero(self._l1(coords) <= radius)
        x = [column.take(inside).astype(np.int64, copy=False) for column in coords.T]
        norm = np.abs(x[-1])
        at = 2 * norm - (x[-1] < 0)
        sizes = np.append(0, 2 * np.arange(radius + 1) + 1)  # B_1(r) at r + 1, for r = -1..radius
        for x0 in x[-2::-1]:
            wider = sizes + 2 * np.append(0, np.cumsum(sizes)[:-1])  # B_(k+1)(r) = B_k(r) + 2 sum_(s<r) B_k(s)
            pair = sizes[:-1] + sizes[1:]  # B_k(r - 1) + B_k(r) at r
            t = norm + np.abs(x0)
            at += wider.take(t) + (x0 > 0) * (pair.take(t) - pair.take(norm))
            norm, sizes = t, wider
        index[inside] = at
        return index

    def ball_arrays(self, radius):
        # In order by construction, one dimension at a time, from Z^1 (see
        # ball_index), a layer of Z^(k+1) at a time, each the blocks of
        # _blocks, a slice of the Z^k ball in its order, so each layer is
        # sorted by (x0, y). ±e_0 keeps y and moves x0; ±e_i for i >= 1
        # keeps x0 and moves y through the Z^k table, whose mark n_k for a
        # neighbour outside reads norm T + 1. Blocks past layer T start at
        # n, the mark in the new table. The int64 (n, 2d) step is laid out
        # as the generator table at the end.
        refuse_ball(self, radius)
        T = max(radius, -1)
        if T <= 0:  # no point, or the identity with every neighbour outside
            n = T + 1
            return (np.full((2 * self.dimension, n + 1), n, dtype=index_dtype(n)),
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
        # each generator's move of x0, and the start_of column of x0 = 0
        shift = np.array([1, -1] + [0] * (2 * self.dimension - 2)) + (T + 1)
        for dim, (t, x0, r, lengths, first, starts) in enumerate(self._blocks(T), 1):
            n = int(lengths.sum())
            start_of = np.full((T + 2, 2 * T + 3), n)  # a block's start by [|y|, x0 + T + 1]
            start_of[r, x0 + T + 1] = starts
            head, tail = np.repeat(x0, lengths), np.arange(n) + np.repeat(first[r] - starts, lengths)
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
            del start_of, head, tail  # before the next dimension's gathers or the table
        table = np.full((2 * self.dimension, n + 1), n, dtype=index_dtype(n))
        table[:, :n] = step.T
        return table, coords

    def decode_ball(self, packed):
        columns = packed.T.tolist()  # the coordinate rows
        return columns[0] if self.dimension == 1 else list(zip(*columns))

    # Packed: coordinate rows, int64 while the L1 norm is at most 2^62 - 1,
    # so that the distance of two such rows fits int64.
    pack_limit = (1 << 62) - 1

    def pack(self, elements):
        try:
            rows = np.array(elements, dtype=np.int64).reshape(len(elements), self.dimension)
        except OverflowError:  # a coordinate past int64, so a norm past pack_limit
            return np.array(elements, dtype=object).reshape(len(elements), self.dimension)
        cap = np.uint64(self.pack_limit + 1)  # norms capped here and |x| read in uint64: neither wraps
        norms = np.zeros(len(rows), dtype=np.uint64)
        for column in rows.T:
            norms = np.minimum(norms + np.minimum(np.abs(column).view(np.uint64), cap), cap)
        return rows if norms.max(initial=0) < cap else rows.astype(object)

    def mul_packed(self, A, B):
        # int64 rows have |coordinates| <= pack_limit, so their sums fit. The
        # largest |a| + |b| is at most d times the largest |coordinates|,
        # read with no temporary array; the norms are summed only past that.
        AB = A + B
        rough = sum(max(int(X.max(initial=0)), -int(X.min(initial=0))) for X in (A, B)) * self.dimension
        if AB.dtype == object or rough <= self.pack_limit:
            return AB
        exact = sum(int(self._l1(X).max(initial=0)) for X in (A, B))
        return AB if exact <= self.pack_limit else AB.astype(object)

    def dist_packed(self, A, B):
        return self._l1(B - A)  # as in dist

    @staticmethod
    def _l1(X):
        """The L1 norm of each row of X, its last axis, summed a column at a
        time: numpy reduces over a short axis several times slower."""
        norm = np.abs(X[..., 0])
        for i in range(1, X.shape[-1]):
            norm += np.abs(X[..., i])
        return norm

    def element_to_json(self, g):
        return g if self.dimension == 1 else list(g)

    def element_from_json(self, obj):
        # Z^1 takes a bare int too; a malformed object is named as given
        if self.dimension == 1 and _plain_int(obj):
            return obj
        if isinstance(obj, (list, tuple)) and len(obj) == self.dimension and all(map(_plain_int, obj)):
            return obj[0] if self.dimension == 1 else tuple(obj)
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
_bit_length = np.frompyfunc(int.bit_length, 1, 1)  # of each Python int of an object array


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
        # the longest words whose numerals and fields fit 64 bits: the
        # largest L with base^L <= 2^64 and b * L <= 64, and base^t for t <=
        # L, the powers numerals meet
        base, numerals, self._bits = 2 * rank + 1, 0, (2 * rank - 1).bit_length()
        while base ** (numerals + 1) <= 1 << 64:
            numerals += 1
        self.pack_limit = min(numerals, 64 // self._bits)
        self._powers = np.array([base**t for t in range(self.pack_limit + 1)], dtype=np.uint64)
        codes, top = np.frombuffer(self._letters.encode(), dtype=np.uint8), 1 << (self._bits - 1)
        self._digit_of = np.zeros(128, dtype=np.uint64)  # each letter's digit, by its ASCII code
        self._digit_of[codes] = np.arange(1, base)
        self._field_of = np.zeros(128, dtype=np.uint64)  # and its field
        self._field_of[codes] = [i + top * upper for upper in (0, 1) for i in range(rank)]

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

    def _ranges(self, radius: int):
        """Ball(1, radius) in ball order as ranges of parents: per layer t
        >= 1 and letter gens[j] in ASCII order, (t, j, start, stop, child),
        the words start..stop - 1 of layer t - 1 having the children child..
        with first letter gens[j]. Layer t prepends each letter to the words
        of layer t - 1 it does not cancel, so it comes out in shortlex
        order: a run of children per first letter, every run as long. So
        the parents of letter j's run are layer t - 1 less its run of gens[j
        ^ 1], two ranges."""
        gens = self._generators
        order = sorted(range(len(gens)), key=gens.__getitem__)
        lo = 0
        for t in range(1, radius + 1):
            hi = ball_size(self, t - 1)
            run, child = (hi - lo) // len(gens), hi  # a run of layer t - 1: none in layer 0
            for j in order:
                skip = lo + order.index(j ^ 1) * run
                for start, stop in ((lo, skip), (skip + run, hi)):
                    if start < stop:
                        yield t, j, start, stop, child
                        child += stop - start
            lo = hi

    def ball_arrays(self, radius):
        # The Cayley graph is a tree: gens[j] * x is x's child with first
        # letter gens[j], or x's parent (x without its first letter) when x
        # starts with the inverse letter gens[j ^ 1]. A child's numeral is
        # its parent's plus its first letter's digit times base^(t - 1), its
        # length its parent's plus 1, and its fields its parent's plus its
        # first letter's field b(t - 1) bits up. The packed rows, their
        # columns contiguous, and the generator table are filled in place, a
        # range of parents at a time (_ranges).
        refuse_ball(self, radius)
        gens, base, bits = self._generators, 2 * self.rank + 1, self._bits
        n = ball_size(self, radius)
        table = np.full((len(gens), n + 1), n, dtype=index_dtype(n))
        packed = np.zeros((3, n), dtype=object if radius > self.pack_limit else np.uint64).T
        for t, j, start, stop, child in self._ranges(radius):
            end = child + stop - start
            table[j, start:stop] = np.arange(child, end)
            table[j ^ 1, child:end] = np.arange(start, stop)
            digit, field = int(self._digit_of[ord(gens[j])]), int(self._field_of[ord(gens[j])])
            added = np.array([digit * base ** (t - 1), 1, field << bits * (t - 1)], dtype=packed.dtype)
            np.add(packed[start:stop], added, out=packed[child:end])
        return table, packed

    def right_table(self, table: np.ndarray, radius: int, letter: str) -> np.ndarray:
        """R[i], the index of x_i * letter in Ball(1, radius), or n where that
        leaves the ball, as at R[n]: from the ball's generator table
        (``ball_arrays``), a range of parents at a time (``_ranges``). A
        child is c = gens[j] * p, so c * letter = gens[j] * (p * letter), and
        p * letter, one layer nearer the identity, lies in the ball."""
        R = np.full(table.shape[1], table.shape[1] - 1, dtype=table.dtype)
        R[0] = table[self._generators.index(letter), 0]
        for _t, j, start, stop, child in self._ranges(radius):
            table[j].take(R[start:stop], out=R[child : child + stop - start], mode="clip")  # all in range
        return R

    def decode_ball(self, packed):
        # In ball order, each word but the identity is its first letter
        # followed by its parent's word, a range of parents at a time, to
        # the last word's length
        words = [""][: len(packed)]
        for _t, j, start, stop, _child in self._ranges(int(packed[-1, 1]) if len(packed) else -1):
            words.extend(map(self._generators[j].__add__, words[start:stop]))
        return words

    # Packed: (numeral, length, fields) rows. The numeral is the word read in
    # base 2k+1 with letter i of "ab..AB.." as digit i + 1 and the last
    # letter lowest, as in the element code. The fields are the word as
    # b-bit letters, b = ceil(log2(2k)), the last letter lowest: generator i
    # is i and its inverse i + 2^(b - 1), so inverse letters differ in the
    # top bit alone, and "a" is the zero field, so every kernel reads a
    # word's letters by its length. Rows are uint64 (F_1 numerals reach 3^40
    # > 2^63) up to pack_limit letters, and Python ints past that.

    def _powers_to(self, top: int) -> np.ndarray:
        """base^t for t <= top: the uint64 table while top <= pack_limit,
        and past it Python ints in an object array."""
        if top <= self.pack_limit:
            return self._powers
        return np.array([(2 * self.rank + 1) ** t for t in range(top + 1)], dtype=object)

    def pack(self, elements):
        # every letter's digit times base^(the letters after it in its word),
        # and its field shifted up b bits per letter after it, summed per
        # word as differences of one running sum over all words, in which a
        # uint64 wrap cancels
        lengths = np.fromiter(map(len, elements), dtype=np.int64, count=len(elements))
        powers = self._powers_to(int(lengths.max(initial=0)))
        dtype = powers.dtype
        letters = np.frombuffer("".join(elements).encode(), dtype=np.uint8)
        ends = np.cumsum(lengths)
        after = np.repeat(ends, lengths) - np.arange(1, len(letters) + 1)

        def per_word(values):
            sums = np.zeros(len(values) + 1, dtype=dtype)
            np.cumsum(values, out=sums[1:])
            return sums[ends] - sums[ends - lengths]

        numerals = per_word(self._digit_of[letters].astype(dtype) * powers[after])
        fields = per_word(self._field_of[letters].astype(dtype) << (self._bits * after).astype(dtype))
        return np.stack([numerals, lengths.astype(dtype), fields], axis=-1)

    def _common_suffix(self, fa, fb, cap):
        """The letters in which fields fa and fb agree from the lowest, at
        most cap: the trailing zero bits of fa ^ fb, b to a letter."""
        x = np.asarray(fa ^ fb, dtype=np.result_type(fa, fb))  # numpy reads 0-d object results as scalars
        if x.dtype == object:  # a bit at letter cap stands for the agreement past it
            x = np.asarray(x | np.left_shift(1, (self._bits * cap).astype(object)), dtype=object)
            return np.asarray((_bit_length(x & -x) - 1) // self._bits, dtype=np.int64)
        x &= -x  # the lowest differing bit, 0 where none differs
        x -= np.uint64(1)  # its trailing zeros as ones, all 64 where none differs
        return np.minimum(np.bitwise_count(x) // self._bits, cap)

    def mul_packed(self, A, B):
        # The first c letters of b cancel the last c letters of a exactly when
        # a and b^-1 end in the same c letters, so c is their common suffix,
        # capped by the shorter word. b^-1's fields are b's letters in
        # reverse order with their top bits flipped, read a letter at a time
        # on B's own shape. a*b is a without its last c letters followed by
        # b[c:]: in fields, a's shifted down c letters and up |b| - c, ORed
        # with b's |b| - c lowest; in numerals, numeral(a) // base^c *
        # base^(|b| - c) + numeral(b) mod base^(|b| - c); of length |a| +
        # |b| - 2c. Rows that may pass pack_limit are Python ints.
        bits = self._bits
        la, lb = A[..., 1].astype(np.int64), B[..., 1].astype(np.int64)
        most_a, most_b = int(la.max(initial=0)), int(lb.max(initial=0))
        dtype = object if object in (A.dtype, B.dtype) or most_a + most_b > self.pack_limit else np.uint64
        powers = self._powers_to(max(most_a, most_b)).astype(dtype, copy=False)
        shifts = (bits * np.arange(len(powers))).astype(dtype)  # b bits a letter
        masks = (1 << shifts) - 1  # 1 << 64 is 0 in uint64
        na, fa = A[..., 0].astype(dtype, copy=False), A[..., 2].astype(dtype, copy=False)
        nb, fb = B[..., 0].astype(dtype, copy=False), B[..., 2].astype(dtype, copy=False)
        inverse, letter, top = np.zeros(fb.shape, dtype=dtype), (1 << bits) - 1, 1 << (bits - 1)
        for j in range(most_b):  # b's letter j from the end is b^-1's letter j from the start
            flipped = ((fb >> shifts[j]) & letter) ^ top
            inverse |= np.where(j < lb, flipped << shifts[np.maximum(lb - 1 - j, 0)], 0)
        cancel = self._common_suffix(fa, inverse, np.minimum(la, lb))
        kept = lb - cancel
        out = np.moveaxis(np.empty((3, *cancel.shape), dtype=dtype), 0, -1)  # columns contiguous
        low = powers[kept]
        out[..., 0] = na // powers[cancel] * low + nb % low
        out[..., 1] = la - cancel + kept
        out[..., 2] = ((fa >> shifts[cancel]) << shifts[kept]) | (fb & masks[kept])
        return out

    def dist_packed(self, A, B):
        # as in dist: |a| + |b| - 2 (the length of their common suffix)
        la, lb = A[..., 1].astype(np.int64), B[..., 1].astype(np.int64)
        return la + lb - 2 * self._common_suffix(A[..., 2], B[..., 2], np.minimum(la, lb))

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
    ``refuse_ball`` before anything is built."""
    if isinstance(r, Infinity):
        raise ValueError("cannot enumerate a ball of infinite radius")
    refuse_ball(group, radius_floor(r), decoded=True)
    return tuple(group.decode_ball(group.ball_arrays(radius_floor(r))[1]))


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
    bounds are judged against, by ``refuse`` alone."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def refuse(what: str, needed: int) -> None:
    """Raise BudgetError, before anything is allocated, when ``needed``
    bytes pass physical memory: the package's one memory refusal, naming
    what was refused."""
    memory = physical_memory()
    if needed > memory:
        raise BudgetError(f"{what} needs more than {memory} bytes of physical memory")


def index_dtype(n: int) -> np.dtype:
    """The narrowest of uint16, int32 and int64 that holds the indices 0..n
    of an n-point region, n being its sentinel: uint16 below 2^16 points."""
    return np.dtype(np.uint16 if n < 1 << 16 else np.int32 if n < 1 << 31 else np.int64)


def _ball_bytes(group: Group, radius: int, decoded: bool) -> int:
    """Bytes of Ball(1, radius): a closed-form bound on the peak of
    ``ball_arrays`` and a ``Region`` built from them, or with ``decoded``
    of those and ``decode_ball``, per point. On Z^d the build peaks on the
    (n, 2d) int64 gathers beside the coordinate rows and the layers, 96d
    + 48, and decoded on the same arrays with d int objects, a d-tuple and
    list slots, 104d + 80; the generator table laid out from the gathers
    adds 2d cells of ``index_dtype``; the Region's codes, sorted once
    where hashed, reuse the freed gathers. On F_k the arrays are the
    (numeral, length, fields) rows, the scratch of a range of children and
    the generator table built in place, 2k cells, all the Region keeps.
    No array holds norms, yet the charges are unchanged: the 65 still
    counts 8 bytes of int64 norms, a margin kept until a run's own arrays
    are charged beside the Region. Decoded adds list and tuple slots, the
    word, a str of 49 bytes and its letters, and a range's slice of parent
    words, 96 + radius; past pack_limit, numerals and fields are Python
    ints, 4 bytes per 30 bits and 64 more, which cover their hashed codes.
    A quarter more covers the allocators' overhead. F_k balls with k >= 2
    hold over 2^radius points, so past radius 64 they are charged 2^64
    bytes, more than any memory, and never counted."""
    if isinstance(group, FreeGroup) and group.rank > 1 and radius > 64:
        return 1 << 64
    n = ball_size(group, radius)
    cell = index_dtype(n).itemsize
    if isinstance(group, FreeGroup):
        k, bits = group.rank, group._bits
        point = 65 + 2 * k * cell + (96 + radius if decoded else 0)
        if radius > group.pack_limit:
            point += 64 + 4 * radius * ((2 * k + 1).bit_length() + bits) // 30
    else:
        d = group.dimension
        point = (104 if decoded else 96) * d + (80 if decoded else 48) + 2 * d * cell
    return n * (point + point // 4)


def refuse_ball(group: Group, radius: int, decoded: bool = False) -> None:
    """``refuse`` Ball(1, radius) of group at its charge, ``_ball_bytes``:
    its arrays and a Region built from them, or with ``decoded`` their
    elements too, a charge never below the arrays' own."""
    refuse(f"{'the decoded ' if decoded else ''}Ball(1, {radius}) of {group.name}",
           _ball_bytes(group, radius, decoded))


# Bytes a window run keeps a step whatever its region: the step's entries
# in the run's lists, its isolated points and its trace step, each an empty
# array where it colours nothing, and its report's summary lists. Traced
# by tracemalloc over 10^4 and 4 * 10^4 steps on Z^1 and F_2: 410 a step
# for a run, its validation and summary, 456 for a simulate, 1,376 with
# --dump.
_STEP_BYTES = 2048


def refuse_steps(group: Group, radius: int, steps: int) -> None:
    """``refuse`` a window run on Ball(1, radius) at its region's charge
    and _STEP_BYTES a step, a charge never below the region's own."""
    refuse(f"a run of {steps} steps on Ball(1, {radius}) of {group.name}",
           _ball_bytes(group, radius, decoded=False) + steps * _STEP_BYTES)


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
class PackingWitness(Report):
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
class AnnulusWitness(Report):
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
