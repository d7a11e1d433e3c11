"""Declarative pattern ideals: shift-invariant, restriction-closed families
of finite partial colorings, given by kind-specific pairwise/local rules.

The shipped kinds are pairwise: a pattern is a member iff its colors lie
in the palette and no two of its points sit at a distance in the forbidden
band [lo, hi] of their color pair.

* ProperColoring(k) — (c, c) -> [1, 1]; colors >= k are never members. The
  hereditary pairwise ideal; it agrees with the patterns extendable to total
  proper colorings exactly when k >= |S| + 1 (greedy extension always
  succeeds then). For smaller k see the extension oracle, which witnesses
  the gap.
* DistanceConstrained(d, h) — (c, c) -> [1, gap_c - 1] with gap_c =
  max(2*d_c + 1, h_c), or [1, inf] when h_c = inf (a one-shot color).
* NotUniversal(d, D) — (c, c) -> [1, D_c]; (c_x, c_y) with c_y < c_x ->
  [2*d_{c_x} + 1, D_{c_x}]: near a point of color c, points within 2*d_c
  avoid c and points in (2*d_c, D_c] carry a larger color. Local with
  radius D_c per color.

The palette of DistanceConstrained is 0..len(h)-1 and of NotUniversal
0..len(d)-1; a color beyond it raises PaletteExhausted.

Many patterns can also be judged at once, as integer rows of color codes
(``color_code``) over slots with the distances between the slots. A window
judge (``window_judge``) is built once for a slot-distance matrix shared by
every row, for windows laid out on the offsets of one ball about the
identity, as the window process builds one per radius, and the codes its
rows may hold. The pairwise kinds answer with one gather from their bands
compiled as a boolean table over (color, color, distance); every other
ideal asks ``contains`` of each row's pattern, which stays the reference.
The axioms check reads that table pair by pair: it measures each sample's
slot pairs on packed elements of every size, before and after each shift,
and looks each distance up. ``tests/axioms_reference.py`` keeps the
per-pattern audit, and the judge by per-row matrices that this replaced,
as references.

Reduced (product-coded) ideals live in the reduction module; they subclass
IdealSpec and plug into everything here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, compress
from typing import Callable, List, Optional, Sequence

import numpy as np

from .groups import _PAIR_CELLS, Group, ball_size, identity_ball, parse_group
from .patterns import PartialColoring, shift
from .radii import Infinity, Radius, as_int, as_radius, radius_ceil, radius_to_json
from .reports import Report


class PaletteExhausted(ValueError):
    """A pattern uses a color outside the ideal's declared palette."""


# Color codes below zero, read by ``window_judge``: a slot with no
# color, a color outside the palette that is never a member, and a color
# left to ``contains``.
NO_COLOR, OFF_PALETTE, UNCODED = -1, -2, -3


class IdealSpec:
    """Base class for pattern ideals. Membership must be closed under
    restriction and under the shift action (the axioms checker samples for
    exactly that). Each kind sets ``kind`` and ``group`` and defines, one
    line a method:

    - ``contains(phi)``: whether the pattern phi is a member.
    - ``locality_radius(color)``: the window radius r(color) under which membership is local.
    - ``to_json()``: the ideal's JSON spec, which ``ideal_from_json`` reads back."""

    kind: str
    group: Group

    def max_color(self) -> Optional[int]:
        """Largest color the ideal can ever accept (None when unbounded).
        The default schedule of a simulation cycles through 0..max_color()."""
        return None

    def empty(self) -> PartialColoring:
        return PartialColoring._of_valid(self.group, {})

    def color_code(self, c) -> int:
        """The integer that stands for color c in the rows a
        ``window_judge`` reads. By default every color is UNCODED, so
        every window goes to ``contains``."""
        return UNCODED

    def window_judge(self, D: np.ndarray, codes) -> Callable[[np.ndarray, Callable], np.ndarray]:
        """``judge(C, window)``: whether each of many patterns, laid out on
        slots, is a member. C[i, a] codes the color at slot a of pattern i
        (``color_code``: one of ``codes``, or NO_COLOR for none) and
        ``window(i)`` builds pattern i. D, of shape (w, w), gives the
        distances between the slots of every pattern, laid out on the
        offsets w_0, w_1, ... of Ball(1, s): D[a, b] = |w_a w_b^-1|, so D
        depends only on its width. What is fixed for every call on D and
        those codes is prepared once, here. This default prepares nothing
        and asks ``contains`` of each pattern in row order; it is the
        reference for every override."""
        return lambda C, window: np.array([self.contains(window(i)) for i in range(len(C))], dtype=bool)

    def extend_at(self, phi: PartialColoring, gamma, c_max: Optional[int] = None):
        """Least color c <= c_max with phi + (gamma, c) a member, or None.
        phi + (gamma, c) restricts to phi - gamma, so membership of phi -
        gamma is checked once and the colors then go to ``_grow_at``.
        Preconditions are the caller's business; see is_extendable_at."""
        c_max = _color_bound(self, phi, gamma, c_max)
        if c_max < 0:
            return None
        self.group.validate(gamma)
        if gamma in phi:
            phi = phi.remove([gamma])
        if not self.contains(phi):
            return None
        return self._grow_at(phi, gamma, c_max)

    def _grow_at(self, phi: PartialColoring, gamma, c_max: Optional[int]):
        """``extend_at`` without its checks, for phi a member and gamma an
        uncolored canonical element, as growth keeps them: the least color
        c <= c_max with phi + (gamma, c) a member, or None."""
        g = self.group
        for c in range(_color_bound(self, phi, gamma, c_max) + 1):
            if self.contains(PartialColoring._of_valid(g, {**phi.entries, gamma: c})):
                return c
        return None

    def __repr__(self):
        return f"{type(self).__name__}({self.to_json()!r})"

    def __eq__(self, other):
        return isinstance(other, IdealSpec) and self.to_json() == other.to_json()

    def __hash__(self):
        import json

        return hash(json.dumps(self.to_json(), sort_keys=True))


def _plain_colors(phi: PartialColoring, palette_size: int) -> bool:
    """Raise ValueError unless every color of phi is a plain natural; then
    tell whether they all lie below palette_size."""
    inside = True
    for e, c in phi.entries.items():
        if not isinstance(c, int):
            raise ValueError(f"expected plain natural colors, got {c!r} at {e!r}")
        if c >= palette_size:
            inside = False
    return inside


class _Table(dict):
    """A dict that fills each missing key with ``fill(key)`` on first use."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


# Rows of windows times slot pairs gathered at once by _gather, which bounds
# its scratch memory to a few megabytes whatever the window.
_GATHER_CELLS = 1 << 18


def _gather(flat, C, a, b, strides, base) -> np.ndarray:
    """``~flat[C[:, a] * s1 + C[:, b] * s2 + base].any(1)``: no slot pair (a,
    b) of a row holds colour codes forbidden at its distance, for ``flat``
    the compiled bands and ``base`` the pairs' offsets in it. Rows go a
    block of _GATHER_CELLS cells at a time."""
    rows = max(1, _GATHER_CELLS // max(len(a), 1))
    if len(C) > rows:
        return np.concatenate([_gather(flat, C[lo : lo + rows], a, b, strides, base)
                               for lo in range(0, len(C), rows)])
    index = C[:, a] * strides[0]
    index += C[:, b] * strides[1]
    index += base
    return ~flat[index].any(axis=1)


class PairwiseIdeal(IdealSpec):
    """A pattern is a member iff its colors lie in 0..palette_size-1 and no
    two of its points x, y have lo <= dist(x, y) <= hi for (lo, hi) the band
    of their colors. A subclass sets ``palette_size`` and
    ``outside_palette_raises`` (raise PaletteExhausted, or just reject) and
    defines, besides IdealSpec's ``locality_radius`` and ``to_json``:

    - ``band(a, b)``: the distances (lo, hi) at which colors a >= b may not meet; None for none.

    The bands are compiled on first use into a palette x palette table.
    Every band has lo >= 1, so no point clashes with itself."""

    palette_size: int
    outside_palette_raises = True
    _forbid: Optional[np.ndarray] = None  # the compiled bands, see _compiled

    @cached_property
    def _bands(self) -> _Table:
        return _Table(lambda a: _Table(lambda b: self.band(max(a, b), min(a, b))))

    def _in_palette(self, c) -> bool:
        if isinstance(c, int) and 0 <= c < self.palette_size:
            return True
        if self.outside_palette_raises:
            raise PaletteExhausted(
                f"color {c} is outside the palette of {self.palette_size} colors"
            )
        return False

    def contains(self, phi: PartialColoring) -> bool:
        if not _plain_colors(phi, self.palette_size):
            # False, or PaletteExhausted at the first color outside the palette
            return all(map(self._in_palette, phi.entries.values()))
        bands, dist = self._bands, self.group.dist
        items = list(phi.entries.items())
        for i, (x, cx) in enumerate(items):
            row = bands[cx]
            for y, cy in items[i + 1 :]:
                band = row[cy]
                if band is not None and band[0] <= dist(x, y) <= band[1]:
                    return False
        return True

    def _grow_at(self, phi, gamma, c_max):
        """Only the pairs through gamma are tested, from one distance row:
        dist(gamma, y) is measured once per colored y, and every color's
        bands are read against that row."""
        bands, dist = self._bands, self.group.dist
        row = [(dist(gamma, y), bands[cy]) for y, cy in phi.entries.items()]
        for c in range(_color_bound(self, phi, gamma, c_max) + 1):
            for t, near in row:
                band = near[c]
                if band is not None and band[0] <= t <= band[1]:
                    break
            else:
                return c
        return None

    def color_code(self, c) -> int:
        """c itself inside the palette. Outside it, OFF_PALETTE where
        ``contains`` rejects, UNCODED where it raises (PaletteExhausted, or
        ValueError on a pair color), so that it raises here too."""
        if not isinstance(c, int) or c < 0:
            return UNCODED
        if c < self.palette_size:
            return c
        return UNCODED if self.outside_palette_raises else OFF_PALETTE

    def _compiled(self, colors: int, t_max: int) -> np.ndarray:
        """The bands as forbid[a + 2, b + 2, t]: whether color codes a, b
        may not meet at distance t, for colors a, b < colors and t <=
        t_max. OFF_PALETTE clashes with itself at t = 0, that is in its own
        slot; NO_COLOR clashes with nothing. Like ``Region.slot_distances``,
        it keeps one table, built for the most colors and the longest
        distance asked for so far, so a large palette costs only the colors
        in use."""
        table = self._forbid
        if table is not None and len(table) >= colors + 2 and table.shape[2] > t_max:
            return table
        if table is not None:
            colors, t_max = max(colors, len(table) - 2), max(t_max, table.shape[2] - 1)
        t = np.arange(t_max + 1)
        table = np.zeros((colors + 2, colors + 2, t_max + 1), dtype=bool)
        for a in range(colors):
            for b in range(colors):
                band = self._bands[a][b]
                if band is not None:
                    lo, hi = band
                    table[a + 2, b + 2] = (lo <= t) & (t <= (t_max if isinstance(hi, Infinity) else hi))
        table[OFF_PALETTE + 2, OFF_PALETTE + 2, 0] = True
        table.flags.writeable = False
        self._forbid = table
        return table

    def window_judge(self, D, codes):
        """One gather through the bands compiled once for the codes and D: a
        pattern is a member iff no two of its slots a <= b hold colors
        forbidden at their distance. The table is symmetric in its colors,
        so only slot pairs a <= b are read, and of those only the ones at a
        distance where some pair of the codes is forbidden, each at a fixed
        offset into the flat table. With UNCODED among the codes, the
        per-row reference."""
        codes = {int(c) for c in codes} | {NO_COLOR}
        if UNCODED in codes:
            return super().window_judge(D, codes)
        forbid = self._compiled(max(codes) + 1, int(D.max(initial=0)))
        used = np.array(sorted(codes)) + 2
        near = forbid[np.ix_(used, used)].any(axis=(0, 1))[D]
        a, b = np.nonzero(np.triu(near))
        n_codes, n_t = forbid.shape[1:]
        strides = n_codes * n_t, n_t
        base = D[a, b] + 2 * sum(strides)  # codes are stored shifted by 2
        flat = forbid.ravel()
        return lambda C, window: _gather(flat, C, a, b, strides, base)

    def max_color(self):
        return self.palette_size - 1


class ProperColoring(PairwiseIdeal):
    kind = "ProperColoring"
    outside_palette_raises = False

    def __init__(self, group, k: int):
        group = parse_group(group)
        if k < 1:
            raise ValueError(f"need at least one color, got k={k}")
        self.group = group
        self.k = self.palette_size = k

    # the engine, bound by name in each kind: perfbench/tracer.py wraps it per kind
    contains = PairwiseIdeal.contains

    def band(self, a, b):
        return (1, 1) if a == b else None

    def locality_radius(self, color) -> Radius:
        return 1

    def to_json(self):
        return {"kind": self.kind, "group": self.group.spec_string(), "k": self.k}


def _check_h_sequence(h):
    out = []
    for value in h:
        v = as_radius(value)
        if not isinstance(v, (int, Infinity)):
            raise ValueError(f"h entries must be naturals or 'inf', got {value!r}")
        out.append(v)
    for a, b in zip(out, out[1:]):
        if not a <= b:
            raise ValueError(f"h sequence must be nondecreasing, got {out!r}")
    return tuple(out)


def _check_d_sequence(d):
    out = tuple(as_int(v, "each d entry") for v in d)
    if any(v < 0 for v in out):
        raise ValueError(f"d entries must be nonnegative, got {out!r}")
    for a, b in zip(out, out[1:]):
        if not a < b:
            raise ValueError(f"d sequence must be strictly increasing, got {out!r}")
    return out


class DistanceConstrained(PairwiseIdeal):
    kind = "DistanceConstrained"

    def __init__(self, group, d: Sequence[int], h: Sequence):
        group = parse_group(group)
        self.group = group
        self.d = _check_d_sequence(d)
        self.h = _check_h_sequence(h)
        if len(self.h) > len(self.d):
            raise ValueError("h sequence may not be longer than the d sequence")
        self.palette_size = len(self.h)

    contains = PairwiseIdeal.contains

    def band(self, a, b):
        if a != b:
            return None
        gap = max(2 * self.d[a] + 1, self.h[a])
        return (1, gap if isinstance(gap, Infinity) else gap - 1)

    def locality_radius(self, color) -> Radius:
        self._in_palette(color)  # raises PaletteExhausted outside the palette
        return self.band(color, color)[1]

    def to_json(self):
        return {
            "kind": self.kind,
            "group": self.group.spec_string(),
            "d": list(self.d),
            "h": [radius_to_json(v) for v in self.h],
        }


class NotUniversal(PairwiseIdeal):
    kind = "NotUniversal"

    def __init__(self, group, d: Sequence[int], D: Sequence[int]):
        group = parse_group(group)
        self.group = group
        self.d = _check_d_sequence(d)
        self.D = tuple(as_int(v, "each D entry") for v in D)
        if len(self.D) != len(self.d):
            raise ValueError("d and D must have the same length")
        for c, (dc, Dc) in enumerate(zip(self.d, self.D)):
            if Dc < 2 * dc + 1:
                raise ValueError(f"need D_c >= 2*d_c + 1, violated at color {c}")
        self.palette_size = len(self.d)

    contains = PairwiseIdeal.contains

    def band(self, a, b):
        return (1 if a == b else 2 * self.d[a] + 1, self.D[a])

    def locality_radius(self, color) -> Radius:
        self._in_palette(color)  # raises PaletteExhausted outside the palette
        return self.D[color]

    def to_json(self):
        return {
            "kind": self.kind,
            "group": self.group.spec_string(),
            "d": list(self.d),
            "D": list(self.D),
        }


def ideal_from_json(obj: dict) -> IdealSpec:
    if not isinstance(obj, dict):
        raise ValueError(f"an ideal spec is a JSON object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "ProperColoring":
        return ProperColoring(obj["group"], as_int(obj["k"], "k"))
    if kind == "DistanceConstrained":
        return DistanceConstrained(obj["group"], obj["d"], obj["h"])
    if kind == "NotUniversal":
        return NotUniversal(obj["group"], obj["d"], obj["D"])
    if kind == "Reduced":
        from .reduction import ReducedIdeal, join_fn_from_json

        base = ideal_from_json(obj["base"])
        return ReducedIdeal(base, join_fn_from_json(obj["R"], base))
    raise ValueError(f"unknown ideal kind {kind!r}")


# -- join functions ----------------------------------------------------------


class JoinFn:
    """An invariant map from patterns to radii, used to decide when two
    patterns are far enough apart for their union to stay in an ideal.
    A join function must send the empty pattern to 0 and be monotone
    (larger pattern, no smaller value), as both shipped forms do: the
    reduced ideal is restriction-closed only for such R. Each form defines,
    one line a method:

    - ``value(phi)``: the radius R(phi).
    - ``to_json()``: the form's JSON spec, which ``join_fn_from_json`` reads back."""


class ConstantJoin(JoinFn):
    def __init__(self, value):
        v = as_radius(value)
        if isinstance(v, Infinity):
            raise ValueError("a constant join radius must be finite")
        self._value = v

    def value(self, phi: PartialColoring) -> Radius:
        return 0 if len(phi) == 0 else self._value

    def to_json(self):
        return {"form": "Constant", "value": radius_to_json(self._value)}


class SupRadiiJoin(JoinFn):
    """R(phi) = sup of r(color) over the colors phi uses (0 for empty)."""

    def __init__(self, r: Callable[[int], Radius], description=None):
        self.r = r
        self.description = description

    def value(self, phi: PartialColoring) -> Radius:
        best: Radius = 0
        for c in phi.entries.values():
            v = self.r(c)
            if v > best:
                best = v
        return best

    def to_json(self):
        if self.description is None:
            return {"form": "SupOfRadii", "r": "derived"}
        if isinstance(self.description, (list, tuple)):
            return {"form": "SupOfRadii", "r": list(self.description)}
        raise ValueError(
            "only table-backed or derived radius joins have a JSON form; "
            f"got description {self.description!r}"
        )


# -- extendability and sampling ----------------------------------------------


def is_extendable_at(
    P: IdealSpec,
    phi: PartialColoring,
    gamma,
    c_max: Optional[int] = None,
) -> Optional[int]:
    """Least color c <= c_max with phi + (gamma, c) in P, or None if no color
    within the bound works. Preconditions (phi in P, gamma uncolored) are
    enforced."""
    if gamma in phi:
        raise ValueError(f"{gamma!r} is already colored")
    if not P.contains(phi):
        raise ValueError("the pattern is not a member of the ideal")
    return P.extend_at(phi, gamma, c_max)


def _color_bound(P: IdealSpec, phi: PartialColoring, gamma, c_max: Optional[int]) -> int:
    """c_max clamped to P's largest color. For None, that largest color, or
    without one, more colors than the points near gamma can rule out."""
    bound = P.max_color()
    if bound is not None:
        return bound if c_max is None else min(c_max, bound)
    if c_max is not None:
        return c_max
    used = [c for c in phi.entries.values() if isinstance(c, int)]
    radii = []
    for c in set(used) | {0}:
        r = P.locality_radius(c)
        if not isinstance(r, Infinity):
            radii.append(r)
    reach = radius_ceil(max(radii)) if radii else 1
    # |Ball(gamma, reach)| = |Ball(1, reach)| by right invariance
    return (max(used) if used else 0) + ball_size(P.group, reach) + 1


def grow_random_member(
    P: IdealSpec,
    rng: random.Random,
    size: int,
    radius: int = 8,
    c_max: Optional[int] = None,
) -> PartialColoring:
    """A random member of P, grown greedily: repeatedly pick an uncolored
    point in Ball(1, radius) and give it the least color that keeps the
    pattern in P. Growth that cannot proceed is simply skipped, so the
    result is always a member (possibly smaller than ``size``).

    Each step keeps phi a member and draws gamma canonical and uncolored,
    so it goes to ``_grow_at``, which checks neither; only the empty start
    is judged, and if it is no member, every step goes to ``extend_at``."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    g = P.group
    ballpts = identity_ball(g, radius)
    phi = P.empty()
    grow = P._grow_at if P.contains(phi) else P.extend_at
    for _ in range(size * 3):
        if len(phi) >= size:
            break
        gamma = ballpts[rng.randrange(len(ballpts))]
        if gamma in phi:
            continue
        c = grow(phi, gamma, c_max)
        if c is not None:
            phi = PartialColoring._of_valid(g, {**phi.entries, gamma: c})
    return phi


# -- report-producing checks ---------------------------------------------------


@dataclass
class AxiomsReport(Report):
    samples: int = 0
    restriction_violations: List[dict] = field(default_factory=list)
    shift_violations: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.restriction_violations and not self.shift_violations


def ideal_axioms_check(
    P: IdealSpec,
    sample_budget: int,
    seed: int,
    radius: int = 6,
    shift_radius: int = 5,
    max_size: int = 5,
) -> AxiomsReport:
    """Sample members of P by randomized greedy growth and verify the two
    ideal axioms on each: every restriction stays in P (exhaustive over
    subsets for small domains, sampled otherwise) and every shift by a
    nearby element stays in P.

    Samples are grown a block at a time, and a block is judged before the
    next one grows, so memory stays within the block. A block holds as many
    samples as keep its shifts times slot pairs within _PAIR_CELLS, and is
    judged by ``_judge_packed``: on a pairwise kind, the shifted entries
    x*gamma^-1 and every distance are computed in packed arrays
    (``Group.mul_packed``, ``Group.dist_packed``), never inferred from
    right invariance, which is one of the things audited. A block's
    entries are packed in one call, words past pack_limit letters and large
    coordinates as Python ints, so every such block is judged in arrays."""
    if sample_budget < 0:
        raise ValueError(f"sample budget must be nonnegative, got {sample_budget}")
    for name, r in (("radius", radius), ("shift_radius", shift_radius)):
        if r < 0:
            raise ValueError(f"{name} must be nonnegative, got {r}")
    rng = random.Random(seed)
    g = P.group
    shifts = identity_ball(g, shift_radius)
    inverses = g.pack([g.inv(gamma) for gamma in shifts])
    block = max(1, _PAIR_CELLS // (len(shifts) * max(1, max_size * (max_size - 1) // 2)))
    report = AxiomsReport()
    for start in range(0, sample_budget, block):
        samples = []  # (pattern, domain, subset masks, drawn subsets or None)
        for _ in range(min(block, sample_budget - start)):
            phi = grow_random_member(P, rng, rng.randint(0, max_size), radius)
            dom = list(phi.domain())
            if len(dom) <= 8:
                keep, drawn = _subset_masks(len(dom)), None
            else:
                drawn = [rng.sample(dom, rng.randint(0, len(dom))) for _ in range(40)]
                slot = {e: a for a, e in enumerate(dom)}
                keep = np.zeros((len(drawn), len(dom)), dtype=bool)
                for row, sub in zip(keep, drawn):
                    row[[slot[e] for e in sub]] = True
            samples.append((phi, dom, keep, drawn))
        verdicts = _judge_packed(P, samples, shifts, inverses)
        for (phi, dom, keep, drawn), (restricted, shifted) in zip(samples, verdicts):
            report.samples += 1
            for i in np.flatnonzero(np.logical_not(restricted)):
                subset = drawn[i] if drawn else compress(dom, keep[i])  # drawn in the rng's order
                report.restriction_violations.append(
                    {"pattern": phi.to_json(), "subset": [g.element_to_json(e) for e in subset]}
                )
            for i in np.flatnonzero(np.logical_not(shifted)):
                report.shift_violations.append(
                    {"pattern": phi.to_json(), "shift": g.element_to_json(shifts[i])}
                )
    return report


@lru_cache(maxsize=None)
def _subset_masks(m: int) -> np.ndarray:
    """Every subset of m slots as a boolean row, in the order in which
    ``combinations(range(m), k)`` for k = 0..m, and so ``combinations(dom,
    k)`` over an m-point domain, visit them. Only m <= 8 is asked for, so
    the cache holds at most nine tables."""
    keep = np.zeros((1 << m, m), dtype=bool)
    for row, sub in zip(keep, (s for k in range(m + 1) for s in combinations(range(m), k))):
        row[list(sub)] = True
    keep.flags.writeable = False
    return keep


def _judge_packed(P: IdealSpec, samples: list, shifts, inverses):
    """The (restricted, shifted) verdicts of a block of samples, in order.
    A PairwiseIdeal whose block colours all have codes is judged pair by
    pair: the block's entries are packed in one call, each sample's slot
    pairs are measured by ``dist_packed`` before the shifts and after each
    (``mul_packed`` by the shifts' ``inverses``), and every distance is
    read straight from the compiled bands (``_compiled``), as is each
    slot's distance 0 to itself, at which only OFF_PALETTE clashes. A
    restriction fails where it keeps both slots of a clashing pair, a shift
    where some pair clashes after it. Any other ideal asks ``contains`` of
    each restriction and shift."""
    coded = [P.color_code(c) for phi, *_ in samples for c in phi.entries.values()]
    if not isinstance(P, PairwiseIdeal) or UNCODED in coded:
        return [([P.contains(phi.restrict(compress(dom, row))) for row in keep],
                 [P.contains(shift(phi, gamma)) for gamma in shifts]) for phi, dom, keep, _ in samples]
    g = P.group
    sizes = np.array([len(dom) for _, dom, *_ in samples])
    a, b = np.triu_indices(int(sizes.max()), 1)
    rows, pairs = np.nonzero(b < sizes[:, None])  # each sample's slot pairs, in order
    a, b = a[pairs], b[pairs]
    starts = np.cumsum(sizes) - sizes
    x, y = starts[rows] + a, starts[rows] + b  # their entries
    flat = g.pack([e for _, dom, *_ in samples for e in dom])
    before = g.dist_packed(flat[x], flat[y])
    moved = g.mul_packed(flat[:, None], inverses[None, :])  # [x, i] = x * gamma_i^-1
    after = g.dist_packed(moved[x], moved[y])
    forbid = P._compiled(max([NO_COLOR, *coded]) + 1, int(max(before.max(initial=0), after.max(initial=0))))
    bands = forbid.reshape(-1, forbid.shape[2])  # a row per pair of codes, each stored shifted by 2
    codes = np.array(coded, dtype=np.int64) + 2
    pair = codes[x] * len(forbid) + codes[y]
    lone = np.flatnonzero(bands[codes * (len(forbid) + 1), 0])  # entries that clash with themselves
    owner = np.repeat(np.arange(len(samples)), sizes)[lone]
    clash = np.flatnonzero(bands[pair, before])
    restricted = [np.ones(len(keep), dtype=bool) for _, _, keep, _ in samples]
    for s, u, v in zip(rows[clash].tolist(), a[clash].tolist(), b[clash].tolist()):
        restricted[s] &= ~(samples[s][2][:, u] & samples[s][2][:, v])
    for s, u in zip(owner.tolist(), (lone - starts[owner]).tolist()):
        restricted[s] &= ~samples[s][2][:, u]
    shifted = np.ones((len(samples), len(shifts)), dtype=bool)
    p, i = np.nonzero(bands[pair[:, None], after])
    shifted[rows[p], i] = False
    shifted[owner] = False
    return zip(restricted, shifted)


def col_window_check(
    omega: PartialColoring, P: IdealSpec, r: Optional[Callable[[int], Radius]] = None
) -> bool:
    """The local window criterion: around every colored point of color c,
    the window of radius r(c) must be a member of P, where r defaults to
    P's locality radii. At a color whose radius is infinite the window is
    all of omega. For radii under which P is local this coincides with
    plain membership.
    """
    if r is None:
        r = P.locality_radius
    return all(P.contains(omega.window(gamma, r(c))) for gamma, c in omega.entries.items())
