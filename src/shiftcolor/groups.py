"""Finitely generated groups with right-invariant word metrics.

Two families are provided: free abelian groups Z^d (elements are integer
coordinate tuples, generators the ±unit vectors) and free groups F_k
(elements are reduced words over "a..z" with the matching capital letter
denoting the inverse generator). Both carry the word metric of the standard
symmetric generating set:

    dist(g, h) = word length of h * g^-1

which is right-invariant: dist(g*x, h*x) = dist(g, h). Closed balls are
finite (the metric is proper) and are enumerated breadth-first, each layer
sorted by the group's canonical element order, so every downstream greedy
procedure is deterministic.

Also here: the packing searches producing the radius sequences used by the
distance-constrained ideals — minimal d-sequences (two disjoint radius-d_c
balls inside a single radius-d_{c+1} ball) and minimal annulus radii D
(the annulus (2d, D] around the identity contains a radius-d ball).
"""

from __future__ import annotations

import re
import string
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
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
        """Closed ball {x : dist(center, x) <= r}, BFS layer by layer, each
        layer sorted canonically. A rational radius acts as its floor."""
        if isinstance(r, Infinity):
            raise ValueError("cannot enumerate a ball of infinite radius")
        depth = radius_floor(r) if r >= 0 else -1
        if depth < 0:
            return []
        out = [center]
        seen = {center}
        frontier = [center]
        for _ in range(depth):
            nxt = []
            for x in frontier:
                for s in self.generators():
                    y = self.mul(s, x)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            nxt.sort(key=self.sort_key)
            out.extend(nxt)
            frontier = nxt
        return out

    def ball_arrays(self, radius: int) -> tuple:
        """Ball(1, radius) as arrays, built with no loop over its elements:
        ``(elements, norms, step, distances)``. ``elements`` is
        ``ball(identity(), radius)``, ``norms`` their word lengths,
        ``step[i, k]`` the index of generators()[k] * elements[i] (n where
        that leaves the ball), and ``distances(i)`` gives dist(elements[j],
        elements[i]) for every j < i. A negative radius gives the empty
        ball."""
        raise NotImplementedError

    def element_at_distance(self, t: int):
        """Some element at distance exactly t from the identity."""
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

    def ball_arrays(self, radius):
        # Ball_{d+1}(r) is {(x0, y) : y in Ball_d(r - |x0|)}, and each such
        # Ball_d(r - |x0|) is a prefix of the norm-sorted Ball_d(r), so every
        # dimension costs one gather and one lexsort by (norm, coordinates),
        # which is BFS order with layers sorted by sort_key.
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
        n, d = coords.shape
        elements = coords[:, 0].tolist() if d == 1 else list(map(tuple, coords.tolist()))

        # Table entries: each row's neighbours along the generators (±e_i in
        # order), looked up by searchsorted on the rows' bytes as sort keys.
        coords = np.ascontiguousarray(coords)
        moved = (coords[:, None, :] + np.array(self._generators).reshape(2 * d, d)).reshape(-1, d)
        row = np.dtype((np.void, coords.itemsize * d))
        keys, wanted = coords.view(row).ravel(), moved.view(row).ravel()
        order = np.argsort(keys)
        hit = order[np.minimum(np.searchsorted(keys, wanted, sorter=order), n - 1)]
        step = np.where(keys[hit] == wanted, hit, n).reshape(n, 2 * d)

        def distances(i):
            return np.abs(coords[:i] - coords[i]).sum(axis=1)  # the L1 norm, as in dist

        return elements, norms, step, distances

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
            g = tuple(int(c) for c in obj)
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
        # with the inverse letter gens[j ^ 1].
        gens = self._generators
        if radius < 0:
            nothing = np.zeros(0, dtype=np.int64)
            return [], nothing, nothing.reshape(0, len(gens)), lambda i: nothing
        elements = [""]
        # per layer: the gens index of each word's first letter (-1 for the
        # identity) and the index of its parent (the identity is its own)
        firsts, parents = [np.array([-1])], [np.array([0])]
        lo = 0
        for _ in range(radius):
            layer_first, hi = firsts[-1], len(elements)
            new_first, new_parent = [], []
            for j in sorted(range(len(gens)), key=gens.__getitem__):
                keep = lo + np.flatnonzero(layer_first != j ^ 1)
                elements.extend(map(gens[j].__add__, map(elements.__getitem__, keep.tolist())))
                new_first.append(np.full(len(keep), j))
                new_parent.append(keep)
            firsts.append(np.concatenate(new_first))
            parents.append(np.concatenate(new_parent))
            lo = hi
        first, parent = np.concatenate(firsts), np.concatenate(parents)
        norms = np.repeat(np.arange(radius + 1), [len(f) for f in firsts])
        n = len(elements)
        step = np.full((n, len(gens)), n, dtype=np.int64)
        child = np.arange(1, n)
        step[parent[child], first[child]] = child
        step[child, first[child] ^ 1] = parent[child]

        @cache
        def ancestors():
            # row i, column t: the index of x_i's length-t suffix, its
            # ancestor at depth t (-1 for t > |x_i|)
            table = np.full((n, radius + 1), -1, dtype=np.int64)
            rows = node = np.arange(n)
            for _ in range(radius + 1):
                table[rows, norms[node]] = node
                node = parent[node]
            return table

        def distances(i):
            # as in dist: |x_i| + |x_j| - 2 (length of the common suffix)
            depth = norms[i]
            up = ancestors()[:, : depth + 1]
            common = (up[:i] == up[i]).sum(axis=1) - 1
            return norms[:i] + depth - 2 * common

        return elements, norms, step, distances

    def element_to_json(self, g):
        return g

    def element_from_json(self, obj):
        if obj == 1 or obj == "1":
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
    one = group.identity()
    d0 = None
    for r in range(0, budget + 1):
        if len(group.ball(one, r)) >= 2:
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
            candidates = group.ball(one, enclosing - d)
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
