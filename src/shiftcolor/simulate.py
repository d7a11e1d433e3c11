"""Randomized window colorings driven by a local ideal, plus the sparse
multi-scale coloring, equivariance instrumentation, and pattern extraction.

The iterative construction colors a finite ball (the window plus a margin)
in rounds. Round i has a scheduled color c_i and a reach R_i — the largest
window radius among previously scheduled colors (0 at the start: sup over
nothing). A point gets color c_i when it is the unique support point of the
round's random field inside its own radius-2R_i ball, provided the local
window around it plus the new entry stays in the ideal, and provided that
ball sits inside the region so both conditions are evaluated exactly.
Supports are iid Bernoulli(p) bits keyed by (seed, round, element), so runs
are reproducible and shift-equivariant up to boundary effects. A trace holds
its Region and each step's points as region indices, scattered once into
each point's step (``SimulationTrace.step_of``), which the validator and
the equivariance check read as they are. A Region is integer arrays;
its elements are decoded once, on first read, and only what names points
reads them: dumps (``SimulationTrace.assigned_sets``), validation failures,
equivariance mismatches, ideals judged window by window, and the sparse
run. A trace given as elements is validated and located once, by
``from_elements``, from the layout ``ball_arrays`` builds
(``Region.locate``).

The default schedule cycles through the ideal's palette with a warm-up:
rounds before R_i reaches its maximum get empty supports (the schedule still
advances). This keeps every accepted assignment checked at full window
radius — without it, two adjacent support points could legally take the
same color in a round with R_i = 0: each is alone in its radius-0 ball, and
its window holds only itself.

Neither the run nor its validator judges a window at a time. Every window
of radius r about x is Ball(1, r)*x, a column of |Ball(1, r)| region
indices in offset order, so many windows form one matrix of colour codes
over the same offsets, and the distance between two slots is the distance
between their offsets (right invariance, ``Region.slot_distances``). No
table of windows is kept: ``Region.columns`` composes the columns of the
points that read them, a row per offset from the generator table, in the
region's index dtype (``groups.index_dtype``: uint16 below 2^16 points,
int32 below 2^31), and refuses them before allocating past memory. Their
entries are only ever indices or compared with other arrays, never summed
with a Python int, which would wrap in uint16.
A window judge (``IdealSpec.window_judge``) takes that matrix: it is
built once per window radius, for the one D and the colour codes in use,
and each call is then one array lookup on the pairwise kinds; any other
ideal builds each window as a pattern and asks ``contains``, decoding it
from each point's step and the steps' colours (``_window_after``).

A region is laid out by norm, so the points of norm at most r are its
first ``Region.prefix(r)`` points: every "|x| <= r" test (the interior,
the isolation candidates, the safe set of the equivariance check, a
window that stays inside) reads that prefix or compares an index with
it, and builds no mask or norm array over the region. A run
keeps each point's colour code and step number, and a trace its step
numbers, in the narrowest dtype that holds them (``_narrowest``: int8
codes up to 128 colours, uint8 step numbers up to 254 steps). Under NEP
50 such an array times a Python int stays in its dtype and wraps, so
they are only compared and used as indices, and the windows of colour
codes a judge multiplies by its strides are widened to int64 first, one
step's at a time.

The schedule alone fixes each step's colour and reach, so ``run`` draws
and isolates every step's supports before the first step: the steps that
share one isolation radius are folded, up to 64 at a time, into one word
per point, a bit per step, and isolated together in one pass over the
slots of their candidates' windows, read from ``Region.columns`` a chunk
of candidates at a time, so a candidate drops once every bit it has
meets another support point; the survivors are split by step a lowest
set bit at a time (``_by_bit``). The windows of every step's isolated
points are then composed once per radius. A step drops its isolated
points that are already coloured and judges the rest in one call of its
radius's judge, then scatters the accepted points' colour code and step;
the fill fractions come from the steps at the end. The candidates are
more than 2R_i apart, so no candidate's window holds another and they
are judged independently.

A window is judged on the pairs through its centre, slot 0, alone when
every step with candidates has s_i at least the ideal's ``pair_reach``,
the farthest distance at which two of the run's colours are forbidden:
then each point's forbidden pairs with the points before it lay in its
window when it was judged, two points of one step are farther apart than
any forbidden pair, and so the coloured points never hold one. PC, DC
and NU under warm-up, with s_i = floor(2 max r), always qualify. Without
warm-up the first steps see less far and an old pair may already
violate, and an ideal with no bands has no finite reach: there every
pair in a window is judged. The validator judges a whole trace in one
pass per window radius: every (step, point) pair whose window the step
touched, on the window as it stood after that step, on every pair of the
window, composed a chunk of coloured points at a time.

A run draws its supports from ``run``'s ``field`` read at ``codes``: the
config's RandomField and the region's codes by default. The equivariance
check runs twice on one field, the second time at the codes of x*gamma
from one translation kernel, ``Region.right_translate``, which reads
every translate's region index from the layout ``ball_arrays`` builds,
with no search: on Z^d from the translated coordinates
(``FreeAbelian.ball_index``), on F_k by a walk along gamma's letters
through right-multiplication tables built from the generator table
(``FreeGroup.right_table``). A translate inside the region reads the
region's element code; only the translates that leave it are coded
afresh, on F_k by appending gamma's remaining digits to a numeral while
that fits 64 bits, and by ``mul_packed`` past that.

The sparse run's greedy colouring at scale d_c reads each point's earlier
neighbours from its composed window when Ball(1, d_c) is smaller than the
region (``_tabled``), and otherwise from packed distances over every
earlier pair (``groups.distance_block``), a block at a time; neither
holds more than a chunk of windows or a block of pairs. Its separation
check re-verifies the final colours from ``distance_block`` alone,
independently of the windows.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .groups import (_PAIR_CELLS, FreeGroup, Group, ball_size, distance_block,
                     identity_ball, parse_group, refuse, refuse_ball, refuse_steps)
from .ideals import NO_COLOR, IdealSpec, _check_d_sequence
from .patterns import PartialColoring, _validate_color
from .radii import Infinity, Radius, radius_ceil, radius_floor
from .reports import Report
from .rng import RandomField, codes_hashed, element_code, element_codes


class Region:
    """Ball(1, radius) as the window process reads it, with no element
    object: the generator table ``_step`` and the packed rows ``packed``
    as ``Group.ball_arrays`` builds them, and the points' element codes,
    which key the field and are checked for collisions only where
    ``codes_hashed`` says they may collide. ``len(region)`` is n, the
    sentinel index. Points are found by the layout (``locate``,
    ``right_translate``). The elements, in ``Group.ball``'s order, are
    decoded by ``Group.decode_ball`` on the first read of ``elements``:
    reports that name points read them. Windows about points are composed
    from the generator table for the points that read them (``columns``),
    and no table of them is kept; the slot distances are measured on first
    use."""

    def __init__(self, group: Group, radius: int):
        self.group = group
        self.radius = radius
        self._step, self.packed = group.ball_arrays(radius)
        self.codes = element_codes(group, self.packed)
        if codes_hashed(group, radius) and not np.diff(np.sort(self.codes)).all():  # else distinct by construction
            raise RuntimeError(f"element codes collide on the radius-{radius} region of {group.name}")
        for a in (self.codes, self._step, self.packed):
            a.flags.writeable = False  # shared by every caller
        self._distances = np.zeros((0, 0), dtype=np.int64)

    def __len__(self) -> int:
        return len(self.packed)

    def prefix(self, r: int) -> int:
        """The number of points of norm at most r, for r at most the
        region's radius: they are the first ones, the region being laid
        out by norm. 0 for r < 0."""
        return ball_size(self.group, r)

    @cached_property
    def elements(self) -> list:
        """The region's points in region order, decoded on first read, and
        refused by ``refuse_ball`` before that."""
        refuse_ball(self.group, self.radius, decoded=True)
        return self.group.decode_ball(self.packed)

    def columns(self, s: int, points: np.ndarray, what: str = "points") -> np.ndarray:
        """Row j, column i: the index of w_j * x for x = points[i] and w_j
        offset j of Ball(1, s), or the sentinel len(region) outside the
        region. A new (|Ball(1, s)|, len(points)) array in the generator
        table's index dtype, composed a layer at a time (``_compose``) for
        these points alone, and refused, naming the points ``what``, before
        allocating past memory."""
        points = np.asarray(points)
        starts, layers = _paths(self.group, s)
        refuse(f"composing the radius-{s} windows of {len(points)} {what} of the {len(self)}-point region "
               f"of {self.group.name}", starts[-1] * len(points) * self._step.itemsize)
        every = bool(len(points)) and int(points.max()) >= self.prefix(self.radius - s)
        out = np.empty((starts[-1], len(points)), dtype=self._step.dtype)
        out[0] = points
        for inner, lo, hi, layer in zip(starts, starts[1:], starts[2:], layers):
            _compose(self._step, out[inner:lo], out[lo:hi], layer, every)
        return out

    def slot_distances(self, s: int) -> np.ndarray:
        """D[a, b] = |w_a w_b^-1| for the offsets w of Ball(1, s): by right
        invariance the distance between slots a and b of every column of
        ``columns(s, ...)``. Measured on first use, for the widest s asked
        for so far, and refused before allocating past memory; a narrower
        s reads a corner."""
        w = ball_size(self.group, s)
        if len(self._distances) < w:
            refuse(f"measuring the radius-{s} slot distances of {self.group.name}", w * w * 8)
            every = np.arange(w)
            self._distances = distance_block(self.group, self.group.ball_arrays(s)[1], every, every)
            self._distances.flags.writeable = False
        return self._distances[:w, :w]

    def locate(self, elements: Sequence) -> np.ndarray:
        """Each valid element's region index, or the sentinel len(region)
        outside the region, as int64, read from the region's layout: on Z^d
        by ``FreeAbelian.ball_index``; on F_k, as a_1...a_L = a_1*(a_2*(...
        *a_L)), from the identity's index 0 through the generator table, by
        the letters from the last. A word longer than T starts at the
        sentinel, whose column keeps it there, so T passes suffice."""
        g, T = self.group, self.radius
        packed = g.pack(elements)
        if not isinstance(g, FreeGroup):
            return g.ball_index(packed, T)
        lengths, fields, top = packed[:, 1].astype(np.int64), packed[:, 2], 1 << (g._bits - 1)
        index = np.where(lengths > T, len(self), 0)
        for j in range(min(int(lengths.max(initial=0)), T)):  # letter j from the end
            rows = np.flatnonzero(lengths > j)
            f = ((fields[rows] >> (g._bits * j)) & (2 * top - 1)).astype(np.int64)
            index[rows] = self._step[2 * (f % top) + f // top, index[rows]]  # field i is row 2i, i + top 2i + 1
        return index

    def right_translate(self, gamma) -> Tuple[np.ndarray, np.ndarray]:
        """``(index, codes)`` of the right translates x_i*gamma: index[i] is
        the region index of x_i*gamma, or the sentinel len(region) where
        that leaves the region, and codes[i] its element code. Indices are
        read from the region's layout: on Z^d by ``FreeAbelian.ball_index``
        of the translated coordinates; on F_k, in the region's index dtype,
        by a walk along gamma's letters, a right-multiplication table
        (``FreeGroup.right_table``) each. On F_k |x*gamma[:l]| falls and
        then rises, so a row that leaves stays out, no row leaves between
        two points of the region, and every row has left by letter 2T. A
        translate inside reads the region's code. One that leaves is coded
        from its coordinates on Z^d; on F_k, from the point y it left from
        at letter l, as y's numeral followed by gamma[l:] while T + |gamma|
        is at most pack_limit, and past that by ``mul_packed``, a block of
        rows at a time."""
        g, n, T = self.group, len(self), self.radius
        if not isinstance(g, FreeGroup):  # exact in int64, gamma packing as Python ints past pack_limit
            moved = np.add(self.packed, g.pack([gamma]), order="F")  # columns contiguous
            index = g.ball_index(moved, T)
            codes = self.codes.take(index, mode="clip")  # set below where leaving
            leaving = index == n
            codes[leaving] = element_codes(g, moved[leaving])
            return index, codes
        index = np.arange(n, dtype=self._step.dtype)
        exits = []  # per letter l: the rows that leave there, and the points they leave from
        for l, letter in enumerate(gamma[: 2 * T + 1]):
            moved = g.right_table(self._step, T, letter).take(index)
            rows = np.flatnonzero((moved == n) & (index != n)).astype(index.dtype)
            exits.append((rows, index[rows], l))
            index = moved
        codes = self.codes.take(index, mode="clip")  # set below where leaving
        if T + len(gamma) <= g.pack_limit:  # y's numeral, then the digits of gamma[l:]
            for rows, y, l in exits:
                codes[rows] = (self.codes[y] * np.uint64((2 * g.rank + 1) ** (len(gamma) - l))
                               + np.uint64(element_code(g, gamma[l:])))
        else:
            leaving = np.flatnonzero(index == n)
            for lo in range(0, len(leaving), _PAIR_CELLS):
                rows = leaving[lo : lo + _PAIR_CELLS]
                codes[rows] = element_codes(g, g.mul_packed(self.packed[rows], g.pack([gamma])))
        return index, codes


@lru_cache(maxsize=16)
def _paths(group: Group, s: int) -> Tuple[List[int], List[list]]:
    """Ball(1, s)'s layer starts and its size, and per layer past the
    identity, per offset w_t in offset order, every (j, k) with w_t =
    gens[k] * w_j and |w_j| = |w_t| - 1, j counted from the start of w_j's
    layer: read from the offsets' own generator table."""
    table, _packed = group.ball_arrays(s)
    starts = [ball_size(group, t) for t in range(-1, s + 1)]
    layer = np.repeat(np.arange(s + 1), np.diff(starts))  # each offset's norm
    paths: List[List[Tuple[int, int]]] = [[] for _ in range(len(layer))]
    gen, off = np.nonzero(np.append(layer, -1)[table[:, :-1]] > layer)  # a*w' one layer out
    for j, k, t in sorted(zip(off.tolist(), gen.tolist(), table[gen, off].tolist())):  # by w', then a
        paths[t].append((j - starts[layer[j]], k))
    return starts, [paths[lo:hi] for lo, hi in zip(starts[1:], starts[2:])]


def _compose(step: np.ndarray, inner: np.ndarray, rows: np.ndarray, layer: list, every: bool) -> None:
    """Fill ``rows``, a layer's rows, from ``inner``, the previous layer's,
    through the generator table (whose sentinel column maps the sentinel to
    itself): row w*x from row w'*x, for w = a*w' and each (w', a) of
    ``layer``'s paths. Where no window leaves the region every path stays
    in it and the first is taken; with ``every``, the least over the paths
    keeps whichever stays in, exact for Z^d and F_k, where any two points
    of a ball about the identity are joined by a geodesic inside it."""
    for row, via in zip(rows, layer):
        j, k = via[0]
        step[k].take(inner[j], out=row, mode="clip")  # every index is in range, and clip needs no buffer
        for j, k in via[1:] if every else ():
            np.minimum(row, step[k].take(inner[j]), out=row)


def _narrowest(*values: int) -> np.dtype:
    """The narrowest integer dtype that holds each of ``values``, unsigned
    where none is negative."""
    lo, hi = min(values), max(values)
    if lo >= 0:
        return np.min_scalar_type(hi)
    return np.result_type(np.min_scalar_type(lo), np.min_scalar_type(-1 - hi))


def _window_after(region: Region, step_of: np.ndarray, colors: Sequence, j: int, r: int, t: int) -> dict:
    """The entries within distance r of point j after step t, for a window
    that fits inside the region: ``region.columns(r, [j])`` is Ball(1,
    r)*x_j in offset order. ``step_of`` holds each point's 1-based step,
    and a later one at the sentinel index and where a point is not (yet)
    coloured; ``colors`` holds each step's colour. Only failure records and
    ideals judged window by window read it."""
    window = region.columns(r, [j])[:, 0]
    steps = step_of[window]
    keep = steps <= t
    return {region.elements[k]: colors[i - 1] for k, i in zip(window[keep].tolist(), steps[keep].tolist())}


# Points whose windows ``_window_blocks`` and ``_isolated`` compose at once,
# at the least: a take over fewer is mostly the call's own overhead.
_CHUNK = 1024
# Window cells ``_isolated`` composes at once past _CHUNK candidates: a chunk
# costs two array calls a slot, which fewer cells do not amortize.
_CHUNK_CELLS = 1 << 18


def _window_blocks(region: Region, s: int, points: np.ndarray, rows: int):
    """(block, windows) for each block of ``rows`` points in turn: the
    block and its radius-s windows (``Region.columns``), composed for a
    chunk of at least _CHUNK points, whole blocks, at a time."""
    chunk = rows * -(-_CHUNK // rows)
    for lo in range(0, len(points), chunk):
        windows = region.columns(s, points[lo : lo + chunk])
        for at in range(0, windows.shape[1], rows):
            yield points[lo + at : lo + at + rows], windows[:, at : at + rows]


def _isolated(region: Region, s: int, words: np.ndarray, cand: np.ndarray, k: int) -> List[np.ndarray]:
    """Per step j < k of a block, the candidates x, in increasing order,
    whose word has bit j and whose radius-s window holds no other point
    whose word has it. ``words`` holds a word per point and 0 at the
    sentinel index: bit j is set where the point is a support point of step
    j. The candidates with a bit set read their windows (``Region.columns``)
    a chunk of at least _CHUNK, and of _CHUNK_CELLS cells past that, at a
    time: past slot 0, the point itself, the words of each candidate's
    neighbours are ORed together, slot by slot, and their bits cleared
    from its word at the end of its chunk; a candidate drops when no bit is
    left."""
    alive = words.take(cand)
    keep = alive != 0
    cand, alive = cand[keep], alive[keep]
    chunk = max(_CHUNK, _CHUNK_CELLS // ball_size(region.group, s))
    for lo in range(0, len(cand), chunk):
        met = np.zeros_like(alive[lo : lo + chunk])
        for row in region.columns(s, cand[lo : lo + chunk], "candidates")[1:]:
            met |= words.take(row, mode="clip")  # 0 at the sentinel, never a support point
        alive[lo : lo + chunk] &= ~met
    met = row = None  # the last chunk's windows, freed before the split below
    keep = alive != 0
    return _by_bit(cand[keep], alive[keep], k)


def _by_bit(cand: np.ndarray, words: np.ndarray, k: int) -> List[np.ndarray]:
    """Per bit j < k, the entries of ``cand``, in order, whose word in
    ``words``, none of them 0, has bit j. Each word is peeled a lowest set
    bit at a time, so the cost is the bits set plus the words times the
    most bits one has, not k passes over the words."""
    hits, bits = [cand[:0]], [np.zeros(0, dtype=np.uint8)]
    while len(cand):
        low = words & -words  # the lowest set bit, in two's complement
        bits.append(np.bitwise_count(low - 1))  # its place
        hits.append(cand)
        words = words ^ low
        keep = np.flatnonzero(words)
        cand, words = cand[keep], words[keep]
    hits, bits = np.concatenate(hits), np.concatenate(bits)
    hits = hits[np.lexsort((hits, bits))]  # by bit, then in order
    ends = np.cumsum(np.bincount(bits, minlength=k)).tolist()
    return [hits[lo:hi] for lo, hi in zip([0, *ends], ends)]


@lru_cache(maxsize=1)
def _region_of(group: Group, radius: int) -> Region:
    """The cached Region of the given radius about the identity."""
    return Region(group, radius)


@dataclass
class SimulationConfig(Report):
    ideal: IdealSpec
    window_radius: int
    margin: int
    steps: int
    p: Fraction = Fraction(1, 2)
    seed: int = 0
    schedule: Optional[Sequence[int]] = None
    warmup: bool = True

    def __post_init__(self):
        self.p = Fraction(self.p)

    def cycle(self) -> List[int]:
        if self.schedule is not None:
            cycle = [_validate_color(c) for c in self.schedule]
        else:
            top = self.ideal.max_color()
            if top is None:
                raise ValueError("the ideal has no finite palette; pass a schedule")
            cycle = list(range(top + 1))
        if not cycle:
            raise ValueError("empty color schedule")
        return cycle

    def validate(self) -> None:
        if self.window_radius < 0 or self.margin < 0 or self.steps < 0:
            raise ValueError("window radius, margin, and steps must be nonnegative")
        RandomField(self.ideal.group, self.seed, self.p)  # refuses a density outside (0, 1)
        cycle = self.cycle()
        radii = []
        for c in cycle:
            r = self.ideal.locality_radius(c)
            if isinstance(r, Infinity):
                raise ValueError(f"color {c} has no finite window radius; the ideal is not local there")
            radii.append(r)
        max_r = max(radii)
        if self.margin < radius_ceil(2 * max_r):
            raise ValueError(
                f"margin {self.margin} is smaller than twice the largest window radius ({max_r})"
            )


def _locate_strictly(region: Region, elements: Sequence) -> np.ndarray:
    """The region index of each trace point, after validating each once; a
    point outside the region raises."""
    for e in elements:
        region.group.validate(e)
    at = region.locate(elements)
    outside = len(region)
    if outside in at:
        raise ValueError(f"trace point {elements[at.tolist().index(outside)]!r} lies outside the region")
    return at


@dataclass
class SimulationTrace:
    """Per step, the colour and the region indices of the points it coloured
    in Ball(1, window + margin). Elements are decoded where they are read:
    dumps, and a refused trace. A point coloured twice, in one step or in
    two, is refused: the process colours only uncoloured points, and the
    validator reads each point's colour as its only one. ``step_of`` is
    derived from the steps: each point's 1-based step, and len(steps) + 1
    for an uncoloured point and at the sentinel index len(region), in the
    narrowest unsigned dtype that holds len(steps) + 1."""
    config: SimulationConfig
    region: Region  # its elements, in region order, name the points
    interior_size: int  # the interior Ball(1, window) is a prefix of the region
    steps: List[Tuple[int, np.ndarray]]
    fill_fractions: List[float]
    reaches: List[Radius]  # R_i consumed by step i, plus the final value
    schedule_used: List[int]
    step_of: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = np.concatenate([np.zeros(0, dtype=np.int64), *(at for _c, at in self.steps)])
        last = len(self.steps)
        self.step_of = np.full(len(self.region) + 1, last + 1, dtype=_narrowest(last + 1))
        self.step_of[points] = np.repeat(np.arange(1, last + 1), [len(at) for _c, at in self.steps])
        if np.count_nonzero(self.step_of <= last) < len(points):  # some point is listed twice
            twice = np.flatnonzero(np.bincount(points, minlength=len(self.region)) > 1)
            raise ValueError(f"trace point {self.region.elements[twice[0]]!r} is coloured more than once")

    @classmethod
    def from_elements(cls, config: SimulationConfig, assigned_sets) -> "SimulationTrace":
        """A trace given as (colour, elements) per step: each colour and
        element is validated once and located in the config's region."""
        region = _region_of(config.ideal.group, config.window_radius + config.margin)
        steps = [(_validate_color(c), _locate_strictly(region, elems)) for c, elems in assigned_sets]
        return cls(config, region, region.prefix(config.window_radius), steps, [], [], [])

    @property
    def group(self) -> Group:
        return self.config.ideal.group

    @property
    def assigned_sets(self) -> List[Tuple[int, Tuple]]:
        """Per step: (colour, the coloured elements)."""
        elements = self.region.elements
        return [(c, tuple(map(elements.__getitem__, at.tolist()))) for c, at in self.steps]

    def coloring_at(self, i: int) -> PartialColoring:
        """The partial coloring after the first i steps."""
        elements = self.region.elements
        cur = {elements[j]: color for color, at in self.steps[:i] for j in at.tolist()}
        return PartialColoring._of_valid(self.group, cur)

    @property
    def final_coloring(self) -> PartialColoring:
        return self.coloring_at(len(self.steps))

    def to_summary_jsonable(self, dump: bool = False) -> dict:
        g = self.group
        out = {
            "config": self.config,
            "region_size": len(self.region),
            "interior_size": self.interior_size,
            "steps": len(self.steps),
            "assigned_counts": [len(at) for _c, at in self.steps],
            "schedule_used": list(self.schedule_used),
            "reaches": [str(r) for r in self.reaches],
            "fill_fractions": self.fill_fractions,
            "final_fill": self.fill_fractions[-1] if self.fill_fractions else 0.0,
        }
        if dump:
            out["assigned_sets"] = [
                {"color": c, "elements": [g.element_to_json(e) for e in elems]}
                for c, elems in self.assigned_sets
            ]
            out["final_coloring"] = self.final_coloring.to_json()
        return out


def _isolated_supports(region: Region, field: RandomField, codes: np.ndarray,
                       radii: List[Optional[int]]) -> List[np.ndarray]:
    """Per step i, the region indices of its support points, in region
    order, whose radius-s_i ball fits inside the region and holds no other
    support point of the step, for s_i = radii[i]; None marks a warm-up
    step, which has none. Every other step's support is the field's at
    ``codes``, a code per point. The steps that share one s are isolated
    together, a block of at most 64 steps at a time: a point's word holds a
    bit per step of the block, set where it is a support point, and
    ``_isolated`` reads the slots of each candidate's window once for the
    whole block. The words are folded from the field's masks, every step of
    the block in one draw over a chunk of codes, at most _PAIR_CELLS cells
    at a time."""
    T, n = region.radius, len(region)
    by_s: Dict[int, List[int]] = {}
    for i, s in enumerate(radii):
        if s is not None:
            by_s.setdefault(s, []).append(i)
    isolated = [np.zeros(0, dtype=np.int64) for _ in radii]
    for s, at in by_s.items():
        # points outside or at the boundary are no candidates, but they
        # still block their neighbours
        cand = np.arange(region.prefix(T - s))
        for lo in range(0, len(at), 64):
            block = at[lo : lo + 64]
            # a word of 8, 16, 32 or 64 bits, as the block needs
            words = np.zeros(n + 1, dtype=f"uint{max(8, 1 << (len(block) - 1).bit_length())}")
            shift = np.arange(len(block), dtype=words.dtype)[:, None]  # row j is bit j
            cols = max(1, _PAIR_CELLS // len(block))
            for start in range(0, n, cols):
                chunk = slice(start, min(start + cols, n))  # the sentinel's word stays 0
                masks = field.mask(block, codes[chunk])
                words[chunk] = np.bitwise_or.reduce(masks.astype(words.dtype) << shift, axis=0)
            for i, points in zip(block, _isolated(region, s, words, cand, len(block))):
                isolated[i] = points
    return isolated


def run(config: SimulationConfig, field: Optional[RandomField] = None,
        codes: Optional[np.ndarray] = None) -> SimulationTrace:
    """Execute the iterative randomized coloring on the configured window,
    its supports read from ``field`` (the config's by default) at
    ``codes``, a code per region point (the region's by default)."""
    config.validate()
    ideal = config.ideal
    g = ideal.group
    refuse_steps(g, config.window_radius + config.margin, config.steps)
    region = _region_of(g, config.window_radius + config.margin)
    n_pts = len(region)
    field = RandomField(g, config.seed, config.p) if field is None else field
    codes = region.codes if codes is None else codes
    if len(codes) != n_pts:
        raise ValueError("field codes must cover the region")

    cycle = config.cycle()
    r_of = {c: ideal.locality_radius(c) for c in cycle}
    code_of = {c: ideal.color_code(c) for c in cycle}
    schedule_used = [cycle[i % len(cycle)] for i in range(config.steps)]
    # R_i, the sup of r over the colours before step i (0 before any), and
    # the final value; and s_i = floor(2R_i), or None for a warm-up step
    reaches: List[Radius] = [0]
    for c in schedule_used:
        reaches.append(max(reaches[-1], r_of[c]))
    max_r = max(r_of.values())
    radii = [None if config.warmup and R < max_r else radius_floor(2 * R) for R in reaches[:-1]]
    # every step's isolated supports, a pass over the window's slots per
    # radius and block of up to 64 steps
    isolated = _isolated_supports(region, field, codes, radii)
    # windows are judged on their pairs through slot 0 alone where every
    # step with candidates sees the farthest forbidden pair of the colours
    reach = ideal.pair_reach(code_of.values())
    centre_only = all(s >= reach for s, cand in zip(radii, isolated) if len(cand))
    # per isolation radius one judge, and the windows of every step's
    # candidates, composed at once, in step order
    judges, windows = {}, {}
    for s in {s for s, cand in zip(radii, isolated) if len(cand)}:
        judges[s] = ideal.window_judge(region.slot_distances(s), code_of.values(), centre_only)
        windows[s] = region.columns(s, np.concatenate([cand for r, cand in zip(radii, isolated) if r == s]))
    start = dict.fromkeys(radii, 0)  # each radius's first column not yet read

    # each point's colour code and 1-based step, and past every step where
    # it is uncoloured, as at the sentinel index, each in the narrowest
    # dtype that holds it
    color_codes = np.full(n_pts + 1, NO_COLOR, dtype=_narrowest(NO_COLOR, *code_of.values()))
    step_of = np.full(n_pts + 1, config.steps + 1, dtype=_narrowest(config.steps + 1))
    steps: List[Tuple[int, np.ndarray]] = []
    for i, (c_i, s, cand) in enumerate(zip(schedule_used, radii, isolated)):
        lo, start[s] = start[s], start[s] + len(cand)
        # coloured support points blocked their neighbours, and take no colour
        uncoloured = color_codes[cand] == NO_COLOR
        accepted = cand = cand[uncoloured]
        if len(cand):
            # candidates are more than s apart, so no window holds another
            # one: each is judged against the colours before the step,
            # with the candidate itself, in slot 0, coloured c_i; in int64,
            # which the judge's strides do not wrap
            C = color_codes[windows[s][:, lo : start[s]].compress(uncoloured, axis=1)].T.astype(np.int64)
            C[:, 0] = code_of[c_i]
            member = judges[s](C, lambda row: PartialColoring._of_valid(
                g, {**_window_after(region, step_of, schedule_used, cand[row], s, i),
                    region.elements[cand[row]]: c_i}))
            accepted = cand[member]
            color_codes[accepted] = code_of[c_i]
            step_of[accepted] = i + 1
        steps.append((c_i, accepted))

    interior = region.prefix(config.window_radius)
    # the interior points each step coloured, summed over the steps so far
    filled = np.bincount(step_of[:interior], minlength=config.steps + 2)[1:-1].cumsum()
    return SimulationTrace(
        config=config,
        region=region,
        interior_size=interior,
        steps=steps,
        fill_fractions=[0.0, *(f / interior for f in filled.tolist())],
        reaches=reaches,
        schedule_used=schedule_used,
    )


@dataclass
class ValidationReport(Report):
    windows_checked: int = 0
    skipped_nonlocal: int = 0
    failures: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# trace_validate's window radius of a colour with none
_NONLOCAL = -1


def trace_validate(trace: SimulationTrace, ideal: IdealSpec) -> ValidationReport:
    """Check every step of the trace against the local criterion: around
    each colored point whose window fits inside the region, the window must
    be a member. A window is judged again at each step that colours a point
    within the largest finite radius R of its centre; windows no step
    touches cannot change, so this covers every (step, point) pair the
    direct definition would. The distance is symmetric, so the steps that
    touch x's window are the steps of the points of x's radius-R window.

    The trace is judged whole, in region indices: the colour codes and
    window radii are read through the steps (``SimulationTrace.step_of``)
    of the points gathered, and for each window radius one judge
    (``IdealSpec.window_judge``), built once, judges every (step t, point
    x) pair of a block of coloured points in one call, on x's window as it
    stood after step t (slots coloured later read NO_COLOR). The centres'
    radius-R windows are composed a chunk of blocks at a time
    (``_window_blocks``), and each radius-r window is their first |Ball(1,
    r)| rows. A block holds as many centres, and a judge call as many of
    their (step, centre) pairs, as radius-R windows fill _PAIR_CELLS
    cells, so every other scratch array stays within them whatever the
    number of steps that touch a window. Failures are listed by step,
    then in ``sort_key`` order. A trace colours each point at most once
    (``SimulationTrace``), so a point's colour is its only one."""
    g = trace.group
    if ideal.group != g:
        raise ValueError(f"the ideal is on {ideal.group.spec_string()}, the trace on {g.spec_string()}")
    T = trace.config.window_radius + trace.config.margin
    region = trace.region
    report = ValidationReport()
    index: Dict[object, int] = {}  # each colour used, as a small int
    kinds = [index.setdefault(c, len(index)) for c, _at in trace.steps]
    palette = list(index)
    radius = [ideal.locality_radius(c) for c in palette]
    finite = [rc for rc in radius if not isinstance(rc, Infinity)]
    R = radius_floor(max(finite)) if finite else 0

    # per step, at its 1-based index (none at 0, and past every step at
    # last + 1, where only the code is read), through its colour: its colour
    # code, its window radius: floor(r_c), or _NONLOCAL where r_c is
    # infinite; and the points whose window fits: x fits iff |x| + ceil(r_c)
    # <= T, so iff x < prefix(T - ceil(r_c)), every x where r_c is infinite
    last, step_of = len(trace.steps), trace.step_of
    kind = np.array([-1, *kinds, -1], dtype=np.int64)
    palette_codes = [*map(ideal.color_code, palette)]
    floors = [_NONLOCAL if isinstance(rc, Infinity) else radius_floor(rc) for rc in radius]
    fits = [len(region) if isinstance(rc, Infinity) else region.prefix(T - radius_ceil(rc)) for rc in radius]
    step_code = np.array([*palette_codes, NO_COLOR], dtype=np.int64)[kind]
    step_radius = np.array([*floors, 0], dtype=np.int64)[kind]
    step_fits = np.array([*fits, 0], dtype=np.int64)[kind]

    colors = [c for c, _at in trace.steps]

    def window_at(j: int, r: int, t: int) -> PartialColoring:
        """Point j's radius-r window after step t."""
        return PartialColoring._of_valid(g, _window_after(region, step_of, colors, j, r, t))

    failing = []  # (t, x) of each window judged not a member
    # the coloured points, in region order, whose window fits: judged, or
    # skipped as non-local
    coloured = np.flatnonzero(step_of[:-1] <= last)
    centres = coloured[coloured < step_fits[step_of[coloured]]]
    # one judge per window radius that some centre has, with its window's width
    judges = {r: (ideal.window_judge(region.slot_distances(r), palette_codes), ball_size(g, r))
              for r in sorted(set(step_radius[step_of[centres]].tolist()) - {_NONLOCAL})}
    rows = max(1, _PAIR_CELLS // ball_size(g, R))  # centres, or pairs, a block
    for block, reach in _window_blocks(region, R, centres, rows):
        # the distinct steps, from x's own on, that colour a point of x's window
        touched = np.sort(step_of[reach.T], axis=1)
        keep = (touched >= step_of[block, None]) & (touched <= last)
        keep[:, 1:] &= touched[:, 1:] != touched[:, :-1]
        pairs = np.nonzero(keep)
        for lo in range(0, len(pairs[0]), rows):
            a, b = (p[lo : lo + rows] for p in pairs)
            t, x = touched[a, b], block[a]
            radii = step_radius[step_of[x]]
            report.skipped_nonlocal += int((radii == _NONLOCAL).sum())
            for r, (judge, w) in judges.items():
                on = radii == r
                if not on.any():
                    continue
                tr, xr = t[on], x[on]
                S = step_of[reach[:w, a[on]].T]
                member = judge(
                    np.where(S <= tr[:, None], step_code[S], NO_COLOR),
                    lambda row: window_at(xr[row], r, tr[row]),
                )
                report.windows_checked += len(xr)
                failing.extend(zip(tr[~member].tolist(), xr[~member].tolist()))
    # region order is not sort_key order on Z^d
    elements = region.elements if failing else []
    for t, j in sorted(failing, key=lambda tj: (tj[0], g.sort_key(elements[tj[1]]))):
        report.failures.append(
            {"step": t, "element": g.element_to_json(elements[j]),
             "window": window_at(j, int(step_radius[step_of[j]]), t).to_json()}
        )
    return report


@dataclass
class EquivarianceReport(Report):
    shift: object  # the shift element, as JSON
    safe_size: int
    cone_radius: str  # str(cone), as a trace summary writes its reaches
    mismatches: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def equivariance_check(config: SimulationConfig, gamma, field: Optional[RandomField] = None) -> EquivarianceReport:
    """Run on ``field`` as drawn and read at the translates x*gamma; the
    colorings must agree — the second run's value at x must equal the
    first run's value at x*gamma — on every point whose full dependency
    cone lies inside the region in both frames."""
    g = config.ideal.group
    g.validate(gamma)
    base = run(config, field)
    region = base.region
    index, codes = region.right_translate(gamma)
    moved = run(config, field, codes)

    cone = sum((2 * R_i for R_i in base.reaches[:-1]), 0)
    # the safe points, a prefix; counted where the translate is safe too,
    # which the sentinel index never is
    safe = region.prefix(region.radius - radius_ceil(cone))
    counted = index[:safe] < safe

    ids: Dict[object, int] = {}  # each colour seen, as a small int
    # per run, by step (none at 0, and past every step), its colour id, or -1
    by_step = [[-1, *(ids.setdefault(c, len(ids)) for c, _at in trace.steps), -1] for trace in (moved, base)]
    # per safe point: its colour id in the second run, and the first's at its translate
    shifted = np.array(by_step[0], dtype=_narrowest(-1, len(ids)))[moved.step_of[:safe]]
    at_target = np.array(by_step[1], dtype=shifted.dtype)[base.step_of[index[:safe]]]
    report = EquivarianceReport(g.element_to_json(gamma), int(np.count_nonzero(counted)), str(cone))
    colors = [*ids, None]  # id -1, no colour, reads the last entry
    differ = np.flatnonzero((shifted != at_target) & counted)
    for i, a, b in zip(differ.tolist(), shifted[differ].tolist(), at_target[differ].tolist()):
        report.mismatches.append(
            {"element": g.element_to_json(region.elements[i]), "shifted_run": colors[a],
             "base_run_at_shifted_point": colors[b]}
        )
    return report


# -- sparse multi-scale coloring ---------------------------------------------------


def _tabled(region: Region, d_c: int) -> bool:
    """Whether the greedy at scale d_c reads composed windows
    (``Region.columns``), decided from closed forms before anything is
    allocated: below the complete-graph shortcut (d_c < 2 * radius, checked
    first because on F_k |Ball(1, d_c)| is exponential in d_c), and when
    Ball(1, d_c) is smaller than the region."""
    return d_c < 2 * region.radius and ball_size(region.group, d_c) < len(region)


def _greedy_distance_coloring(region: Region, d_c: int) -> list:
    """Greedy proper coloring of the graph joining points at distance <= d_c,
    visiting the region in its fixed breadth-first order: each point takes
    the least colour none of its earlier neighbours has. When d_c reaches
    the region's diameter the graph is complete and the result is the visit
    index itself. Otherwise the earlier neighbours come a block of rows at a
    time, where ``_tabled`` allows from the block's composed windows
    (``_window_blocks``): the window of x_i holds w*x_i for every |w| <=
    d_c, and dist(w*x_i, x_i) = |w| by right invariance, so its entries
    below i are exactly the earlier points within d_c. Elsewhere they come
    from ``distance_block`` over every earlier pair. Neither keeps more
    than a block, or a chunk of windows."""
    g, packed = region.group, region.packed
    n = len(region)
    if d_c >= 2 * region.radius:
        return list(range(n))
    if _tabled(region, d_c):
        blocks = ((points, windows.T) for points, windows in
                  _window_blocks(region, d_c, np.arange(n), max(1, _PAIR_CELLS // ball_size(g, d_c))))
    else:
        rows = max(1, _PAIR_CELLS // n)
        blocks = ((np.arange(lo, min(lo + rows, n)), None) for lo in range(0, n, rows))
    eta = []
    for points, windows in blocks:
        if windows is not None:
            a, b = np.nonzero(windows < points[:, None])  # never the sentinel n
            near = windows[a, b]
        else:
            D = distance_block(g, packed, points, np.arange(points[-1] + 1))
            a, near = np.nonzero(np.tril(D <= d_c, points[0] - 1))  # row a: point a and the points before it
        ends = np.searchsorted(a, np.arange(1, len(points) + 1)).tolist()
        near = near.tolist()
        for start, end in zip([0, *ends], ends):
            taken = {eta[j] for j in near[start:end]}
            color = 0
            while color in taken:
                color += 1
            eta.append(color)
    return eta


def _close_pairs(region: Region, points: list, limit: int):
    """(i, j, dist(x_i, x_j)) for the pairs of region indices i before j in
    ``points`` at distance <= limit, in that pair order: from one
    ``distance_block`` triangle, a block of rows at a time."""
    g, packed = region.group, region.packed
    points = np.array(points, dtype=np.int64)
    rows = max(1, _PAIR_CELLS // max(len(points), 1))
    for lo in range(0, len(points), rows):
        D = distance_block(g, packed, points[lo : lo + rows], points[lo:])
        a, b = np.nonzero(np.triu(D <= limit, 1))  # row a: point lo + a
        yield from zip(points[lo + a].tolist(), points[lo + b].tolist(), D[a, b].tolist())


@dataclass
class SparseReport(Report):
    window_size: int
    m: int
    coverage: float
    color_counts: Dict[int, int]
    separation_violations: List[dict] = field(default_factory=list)
    targets: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.separation_violations


def sparse_run(group, d: Sequence[int], window_radius: int, m: int, seed: int):
    """The multi-scale sparse coloring on a window: for each scale c < m,
    greedily properly color the distance-<=d_c graph, draw a target value
    uniformly from the colors that coloring realized, and give each point
    the least scale whose coloring hits its target there. Distinct points
    sharing the final color c are then provably more than d_c apart (they
    were adjacent in the scale-c graph otherwise); the report re-verifies
    that by brute force and records coverage."""
    group = parse_group(group)
    d = list(_check_d_sequence(d))
    if m < 0 or m > len(d):
        raise ValueError(f"need 0 <= m <= len(d), got m={m} with {len(d)} scales")
    if window_radius < 0:
        raise ValueError(f"the window radius must be nonnegative, got {window_radius}")
    region = _region_of(group, window_radius)
    window = region.elements
    n = len(window)
    rng = random.Random(seed)
    etas = []
    targets = []
    for c in range(m):
        eta = _greedy_distance_coloring(region, int(d[c]))
        realized = sorted(set(eta))
        targets.append(realized[rng.randrange(len(realized))])
        etas.append(eta)

    entries = {}
    by_color: Dict[int, list] = {}  # colour -> its points' region indices, in region order
    for i, e in enumerate(window):
        for c in range(m):
            if etas[c][i] == targets[c]:
                entries[e] = c
                by_color.setdefault(c, []).append(i)
                break
    coloring = PartialColoring._of_valid(group, entries)
    violations = [
        {"color": c, "a": group.element_to_json(window[i]), "b": group.element_to_json(window[j]),
         "dist": t}
        for c, points in by_color.items()
        for i, j, t in _close_pairs(region, points, d[c])
    ]
    report = SparseReport(
        window_size=n,
        m=m,
        coverage=len(entries) / n if n else 0.0,
        color_counts={c: len(points) for c, points in by_color.items()},
        separation_violations=violations,
        targets=targets,
    )
    return coloring, report


def extract_patterns(
    omega: PartialColoring, shape_radius: Radius, min_occurrences: int
) -> List[PartialColoring]:
    """All radius-``shape_radius`` window patterns of the coloring around
    interior centers (centers whose whole ball lies in the colored window),
    normalized by shifting the center to the identity (read in place: w ->
    omega(w*gamma)), that occur at least ``min_occurrences`` times. Sorted
    canonically for determinism."""
    if shape_radius < 0:
        raise ValueError(f"the shape radius must be nonnegative, got {shape_radius}")
    if min_occurrences < 0:
        raise ValueError(f"the occurrence count must be nonnegative, got {min_occurrences}")
    g, colors = omega.group, omega.entries
    # the domain of every pattern, so color tuples sort as canonical keys do
    offsets = sorted(identity_ball(g, shape_radius), key=g.sort_key)
    counts = Counter()
    for gamma in colors:
        window = []
        for w in offsets:  # up to the first w*gamma outside the coloring
            c = colors.get(g.mul(w, gamma))
            if c is None:
                break
            window.append(c)
        else:
            counts[tuple(window)] += 1
    return [PartialColoring._of_valid(g, dict(zip(offsets, window)))
            for window, n in sorted(counts.items()) if n >= min_occurrences]
