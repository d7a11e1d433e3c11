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
each step's points as region indices, which the validator and the
equivariance check read as they are; elements are decoded only on read
(``SimulationTrace.assigned_sets``, dumps and reports), and a trace given
as elements is validated and located once, by ``from_elements``.

The default schedule cycles through the ideal's palette with a warm-up:
rounds before R_i reaches its maximum get empty supports (the schedule still
advances). This keeps every accepted assignment checked at full window
radius — without it, two adjacent points could legally take the same color
in a round with R_i = 0, which the fixtures demonstrate on purpose.

Neither the run nor its validator judges a window at a time. Every window
of radius r about x is the row Ball(1, r)*x of the region's neighbour
table, so many windows form one matrix of colour codes over the same
offsets, and the distance between two slots is the distance between their
offsets (right invariance, ``Region.slot_distances``).
``IdealSpec.contains_windows`` takes that matrix: the pairwise kinds answer
in one array lookup, and any other ideal builds each window as a pattern
and asks ``contains``.

The schedule alone fixes each step's colour and reach, so ``run`` draws
and isolates every step's supports before the first step: the steps that
share one isolation radius are drawn, a block of steps per hash pass, and
isolated together, a column of the table at a time, so a row drops at its
first other support point. A step then drops its isolated points that are
already coloured and judges the rest in one call. They are more than 2R_i
apart, so no candidate's window holds another and they are judged
independently. The validator judges a whole trace in one pass per window
radius: every (step, point) pair whose window the step touched, on the
window as it stood after that step. Every pair in a window is judged, not
only the pairs through the new point: without warm-up an old pair may
already violate.

The equivariance check reads the field at x*gamma through one translation
kernel, ``Region.right_translate``, which gives every translate's region
index and element code from arrays (``coords + gamma`` on Z^d,
``FreeGroup.mul_packed`` on the codes on F_k). It forms a product per point
only where coordinates pass int64 or words pass the length that packs. The
sparse run's greedy colourings and its separation check read packed
distances (``groups.distance_block``), a block of pairs at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .groups import _PAIR_CELLS, FreeAbelian, FreeGroup, Group, distance_block, parse_group
from .ideals import NO_COLOR, IdealSpec, _check_d_sequence
from .patterns import PartialColoring, _validate_color, shift
from .radii import Infinity, Radius, radius_ceil, radius_floor
from .reports import Report
from .rng import RandomField, element_code, element_codes


class Region:
    """Ball(1, radius) as the window process reads it, built from integer
    arrays by ``Group.ball_arrays`` with no loop over its elements: the
    elements in ``Group.ball``'s order, their norms (the breadth-first
    layer), the elements in ``Group.pack``'s form ``packed`` (None where the
    words are too long to pack), their element codes (on F_k the packed
    numerals), and the generator table ``step[i, k]``, the index of gens[k]
    * x_i (n where that leaves the region). Built lazily on top: a neighbour
    table with the distances between its slots, and greedy colourings."""

    def __init__(self, group: Group, radius: int):
        self.group = group
        self.radius = radius
        self.elements, self.norms, step, self.packed = group.ball_arrays(radius)
        n = len(self.elements)
        if isinstance(group, FreeGroup) and self.packed is not None:
            self.codes = self.packed[:, 0]  # the numerals are the element codes
        else:  # Z^d coordinates as arrays, F_k words too long to pack one at a time
            self.codes = element_codes(group, self.elements if self.packed is None else self.packed)
        self._code_order = np.argsort(self.codes)
        ordered = self.codes[self._code_order]
        if (ordered[1:] == ordered[:-1]).any():
            raise RuntimeError(f"element codes collide on the radius-{radius} region of {group.name}")
        self._step = np.vstack([step, np.full((1, step.shape[1]), n)])
        for a in (self.norms, self.codes, self._code_order, self._step, self.packed):
            if a is not None:
                a.flags.writeable = False  # shared by every caller
        self.etas: Dict[int, list] = {}  # d_c -> greedy colouring, see _greedy_distance_coloring
        self._table, self._distances, self._widths = self._build_table(0)

    def neighbors(self, s: int) -> np.ndarray:
        """Column j of row i: the index of w_j * x_i, where w_j is offset j of
        Ball(1, s), or the sentinel len(elements) where that leaves the
        region. The table is built for the widest s asked for so far; a
        narrower s reads its first |Ball(1, s)| columns."""
        if s >= len(self._widths):
            self._table, self._distances, self._widths = self._build_table(s)
        return self._table[:, : self._widths[s]]

    def slot_distances(self, s: int) -> np.ndarray:
        """D[a, b] = |w_a w_b^-1| for the offsets w of Ball(1, s): by right
        invariance the distance between slots a and b of every row of
        ``neighbors(s)``, kept with the table as its columns are."""
        w = self.neighbors(s).shape[1]
        return self._distances[:w, :w]

    def locate(self, elements: Sequence) -> np.ndarray:
        """Each valid element's region index, or the sentinel len(elements)
        outside the region. Elements of norm <= radius are region points,
        and the region's codes are distinct: each is found by its code."""
        inside = np.array([self.group.norm(e) <= self.radius for e in elements], dtype=bool)
        return self._index_of(inside, element_codes(self.group, [e for e, k in zip(elements, inside) if k]))

    def right_translate(self, gamma) -> Tuple[np.ndarray, np.ndarray]:
        """``(index, codes)`` of the right translates x_i*gamma: index[i] is
        the region index of x_i*gamma, or the sentinel len(elements) where
        that leaves the region, and codes[i] its element code. On Z^d the
        translates are ``coords + gamma``, coded as arrays; on F_k they are
        ``mul_packed`` of the packed region and gamma, and their numerals
        are their codes, by which they are found as ``locate`` finds points.
        Coordinates past int64, and words x*gamma that may be too long to
        pack, take one product per point and are located."""
        g = self.group
        if isinstance(g, FreeAbelian) and self.radius + g.norm(gamma) < 1 << 63:
            moved = self.packed + np.array(gamma, dtype=np.int64)
            codes, inside = element_codes(g, moved), np.abs(moved).sum(axis=1) <= self.radius
        elif isinstance(g, FreeGroup) and self.radius + len(gamma) <= g.pack_limit:
            moved = g.mul_packed(self.packed, np.array([element_code(g, gamma), len(gamma)], dtype=np.uint64))
            codes, inside = moved[:, 0], moved[:, 1].astype(np.int64) <= self.radius
        else:
            targets = [g.mul(e, gamma) for e in self.elements]
            return self.locate(targets), element_codes(g, targets)
        return self._index_of(inside, codes[inside]), codes

    def _index_of(self, inside: np.ndarray, codes: np.ndarray) -> np.ndarray:
        index = np.full(len(inside), len(self.elements), dtype=np.int64)
        index[inside] = self._code_order[np.searchsorted(self.codes, codes, sorter=self._code_order)]
        return index

    def _build_table(self, s: int) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        # Column w*x is composed from column w'*x through the generator table
        # (whose sentinel row maps the sentinel to itself), where w = a*w'
        # for a generator a and |w'| = |w| - 1, taking whichever such path
        # stays in the region. That is exact for Z^d and F_k: any two points
        # of a ball about the identity are joined by a geodesic inside it.
        # The pairs (w', a) come from the offsets' own generator table.
        g, n = self.group, len(self.elements)
        offsets, norms, step, packed = g.ball_arrays(s)
        table = np.full((n, len(offsets)), n, dtype=np.int64)
        table[:, 0] = np.arange(n)
        pairs = np.nonzero(np.append(norms, -1)[step] > norms[:, None])  # a*w' one layer out
        for j, k, t in zip(pairs[0].tolist(), pairs[1].tolist(), step[pairs].tolist()):
            np.minimum(table[:, t], self._step[table[:, j], k], out=table[:, t])
        every = np.arange(len(offsets))
        distances = distance_block(g, offsets, packed, every, every)
        table.flags.writeable = distances.flags.writeable = False
        return table, distances, np.bincount(norms, minlength=s + 1).cumsum().tolist()


def _window(region: Region, colors: list, j: int, r: int) -> dict:
    """The coloured entries within distance r of point j, for a window that
    fits inside the region: row j of ``region.neighbors(r)`` is
    Ball(1, r)*x_j in offset order. ``colors`` holds each point's colour or
    None, and None in the extra slot at the sentinel index. Only failure
    records and ideals judged window by window read it."""
    elements = region.elements
    row = region.neighbors(r)[j].tolist()
    return {elements[k]: colors[k] for k in row if colors[k] is not None}


def _isolated(nbrs: np.ndarray, supp_mask: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """The candidates whose row of ``nbrs`` holds no other support point of
    their step. ``supp_mask`` is (k, n), a step's support per row (a 1-D
    mask is one step), and ``cand`` indexes it flat, in increasing order.
    Past column 0, the point itself, a column is read at a time, and a row
    drops at its first other support point."""
    masks = supp_mask.reshape(-1, supp_mask.shape[-1])
    k, n = masks.shape
    free = np.ones((k, n + 1), dtype=bool)  # the sentinel is never a support point
    np.logical_not(masks, out=free[:, :n])
    free = free.ravel()
    # each candidate's step and point, and its step's offset in free
    row = np.repeat(np.arange(k), np.diff(np.searchsorted(cand, np.arange(k + 1) * n)))
    point = cand - row * n
    base = row * (n + 1)
    for column in nbrs.T[1:]:
        if not len(point):
            break
        keep = free[column[point] + base].nonzero()[0]
        point, base = point[keep], base[keep]
    return base - base // (n + 1) + point  # row * n + point


@lru_cache(maxsize=1)
def _region_of(group: Group, radius: int) -> Region:
    """The cached Region of the given radius about the identity."""
    return Region(group, radius)


@dataclass
class SimulationConfig:
    ideal: IdealSpec
    window_radius: int
    margin: int
    steps: int
    p: Fraction = Fraction(1, 2)
    seed: int = 0
    schedule: Optional[Sequence[int]] = None
    warmup: bool = True
    forced_supports: Optional[Mapping[int, Sequence]] = None

    def cycle(self) -> List[int]:
        if self.schedule is not None:
            cycle = [_validate_color(c) for c in self.schedule]
        else:
            palette = self.ideal.palette()
            if palette is None:
                raise ValueError("the ideal has no finite palette; pass a schedule")
            cycle = list(palette)
        if not cycle:
            raise ValueError("empty color schedule")
        return cycle

    def validate(self) -> None:
        if self.window_radius < 0 or self.margin < 0 or self.steps < 0:
            raise ValueError("window radius, margin, and steps must be nonnegative")
        p = Fraction(self.p)
        if not 0 < p < 1:
            raise ValueError(f"support density must be in (0,1), got {p}")
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
        if self.forced_supports is not None:
            for i in self.forced_supports:
                if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < self.steps:
                    raise ValueError(f"forced support step {i!r} is not a step index of the run")

    def to_jsonable(self) -> dict:
        out = {
            "ideal": self.ideal.to_json(),
            "window_radius": self.window_radius,
            "margin": self.margin,
            "steps": self.steps,
            "p": str(Fraction(self.p)),
            "seed": self.seed,
            "schedule": None if self.schedule is None else list(self.schedule),
            "warmup": self.warmup,
        }
        if self.forced_supports is not None:
            g = self.ideal.group
            out["forced_supports"] = {
                str(i): sorted((g.element_to_json(e) for e in elems), key=str)
                for i, elems in self.forced_supports.items()
            }
        return out


def _locate_strictly(region: Region, elements: Sequence, what: str) -> np.ndarray:
    """The region index of each element, after validating each once; an
    element outside the region raises, named as ``what``."""
    for e in elements:
        region.group.validate(e)
    at = region.locate(elements)
    outside = len(region.elements)
    if outside in at:
        raise ValueError(f"{what} {elements[at.tolist().index(outside)]!r} lies outside the region")
    return at


@dataclass
class SimulationTrace:
    """Per step, the colour and the region indices of the points it coloured
    in Ball(1, window + margin). Elements are decoded where they are read.
    A point coloured twice, in one step or in two, is refused: the process
    colours only uncoloured points, and the validator reads each point's
    colour as its only one."""
    config: SimulationConfig
    region: list  # the region's elements, in region order
    interior_size: int  # the interior Ball(1, window) is a prefix of the region
    steps: List[Tuple[int, np.ndarray]]
    fill_fractions: List[float]
    reaches: List[Radius]  # R_i consumed by step i, plus the final value
    schedule_used: List[int]

    def __post_init__(self):
        points = np.concatenate([np.zeros(0, dtype=np.int64), *(at for _c, at in self.steps)])
        twice = np.flatnonzero(np.bincount(points, minlength=len(self.region)) > 1)
        if len(twice):
            raise ValueError(f"trace point {self.region[twice[0]]!r} is coloured more than once")

    @classmethod
    def from_elements(cls, config: SimulationConfig, assigned_sets) -> "SimulationTrace":
        """A trace given as (colour, elements) per step: each colour and
        element is validated once and located in the config's region."""
        region = _region_of(config.ideal.group, config.window_radius + config.margin)
        steps = [(_validate_color(c), _locate_strictly(region, elems, "trace point")) for c, elems in assigned_sets]
        return cls(config, region.elements, int((region.norms <= config.window_radius).sum()), steps, [], [], [])

    @property
    def group(self) -> Group:
        return self.config.ideal.group

    @property
    def assigned_sets(self) -> List[Tuple[int, Tuple]]:
        """Per step: (colour, the coloured elements)."""
        return [(c, tuple(self.region[j] for j in at.tolist())) for c, at in self.steps]

    def coloring_at(self, i: int) -> PartialColoring:
        """The partial coloring after the first i steps."""
        cur = {self.region[j]: color for color, at in self.steps[:i] for j in at.tolist()}
        return PartialColoring._of_valid(self.group, cur)

    @property
    def final_coloring(self) -> PartialColoring:
        return self.coloring_at(len(self.steps))

    def to_summary_jsonable(self, dump: bool = False) -> dict:
        g = self.group
        out = {
            "config": self.config.to_jsonable(),
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


def _isolated_supports(config: SimulationConfig, region: Region, codes: np.ndarray,
                       reaches: List[Radius], max_r: Radius) -> List[np.ndarray]:
    """Per step i, the region indices of its support points, in region
    order, whose radius-s_i ball (s_i = floor(2R_i)) fits inside the region
    and holds no other support point of the step. Warm-up steps have none;
    a forced step's support is its located points, any other step's is the
    field's. The schedule fixes every R_i, so the steps that share one s
    are isolated together, a block of at most _PAIR_CELLS mask cells at a
    time, and a block's field steps are drawn in one pass."""
    T = config.window_radius + config.margin
    n = len(region.elements)
    forced = {}
    for i in sorted(config.forced_supports or {}):
        supp = config.forced_supports[i]
        forced[i] = _locate_strictly(region, supp, "forced support point")
        if len(set(supp)) != len(supp):
            raise ValueError(f"forced supports at step {i} repeat a point")
    by_s: Dict[int, List[int]] = {}
    for i, reach in enumerate(reaches[:-1]):
        if i in forced or not (config.warmup and reach < max_r):
            by_s.setdefault(radius_floor(2 * reach), []).append(i)
    field_rng = RandomField(config.ideal.group, config.seed, Fraction(config.p))
    isolated = [np.zeros(0, dtype=np.int64) for _ in reaches[:-1]]
    rows = max(1, _PAIR_CELLS // n)
    for s, at in by_s.items():
        nbrs = region.neighbors(s)
        inside = region.norms + s <= T
        for lo in range(0, len(at), rows):
            block = at[lo : lo + rows]
            supp = np.zeros((len(block), n), dtype=bool)
            drawn = [k for k, i in enumerate(block) if i not in forced]
            if drawn:
                supp[drawn] = field_rng.mask([block[k] for k in drawn], codes)
            for k, i in enumerate(block):
                if i in forced:
                    supp[k, forced[i]] = True
            # points outside or at the boundary are no candidates, but they
            # still block their neighbours
            row, point = np.divmod(_isolated(nbrs, supp, np.flatnonzero(supp & inside)), n)
            ends = np.searchsorted(row, np.arange(len(block) + 1)).tolist()
            for k, i in enumerate(block):
                isolated[i] = point[ends[k] : ends[k + 1]]
    return isolated


def run(config: SimulationConfig, _field_codes: Optional[np.ndarray] = None) -> SimulationTrace:
    """Execute the iterative randomized coloring on the configured window.

    ``_field_codes`` substitutes the element codes used for field sampling
    (the equivariance check passes codes of shifted elements so the run sees
    a translated copy of the same randomness).
    """
    config.validate()
    ideal = config.ideal
    g = ideal.group
    region = _region_of(g, config.window_radius + config.margin)
    n_pts = len(region.elements)
    interior_mask = region.norms <= config.window_radius
    codes = region.codes if _field_codes is None else _field_codes
    if len(codes) != n_pts:
        raise ValueError("field codes must cover the region")

    cycle = config.cycle()
    r_of = {c: ideal.locality_radius(c) for c in cycle}
    code_of = {c: ideal.color_code(c) for c in cycle}
    schedule_used = [cycle[i % len(cycle)] for i in range(config.steps)]
    # R_i, the sup of r over the colours before step i (0 before any), and
    # the final value
    reaches: List[Radius] = [0]
    for c in schedule_used:
        reaches.append(max(reaches[-1], r_of[c]))
    isolated = _isolated_supports(config, region, codes, reaches, max(r_of.values()))

    elements = region.elements
    # each point's colour, recorded after its step, and None at the sentinel
    # index; and the same as the ideal's colour codes
    colors = [None] * (n_pts + 1)
    color_codes = np.full(n_pts + 1, NO_COLOR, dtype=np.int64)
    interior_count = int(interior_mask.sum())
    filled = 0  # coloured points of the interior
    steps: List[Tuple[int, np.ndarray]] = []
    fills = [0.0]
    for c_i, reach, cand in zip(schedule_used, reaches, isolated):
        # coloured support points blocked their neighbours, and take no colour
        accepted = cand = cand[color_codes[cand] == NO_COLOR]
        if len(cand):
            s = radius_floor(2 * reach)
            # candidates are more than s apart, so no window holds another
            # one: each is judged against the colours before the step,
            # with the candidate itself, in column 0, coloured c_i
            C = color_codes[region.neighbors(s)[cand]]
            C[:, 0] = code_of[c_i]
            member = ideal.contains_windows(
                C,
                region.slot_distances(s),
                lambda row: PartialColoring._of_valid(
                    g, {**_window(region, colors, cand[row], s), elements[cand[row]]: c_i}
                ),
            )
            accepted = cand[member]
            for j in accepted.tolist():
                colors[j] = c_i
            color_codes[accepted] = code_of[c_i]
            filled += int(interior_mask[accepted].sum())
        steps.append((c_i, accepted))
        fills.append(filled / interior_count if interior_count else 0.0)

    return SimulationTrace(
        config=config,
        region=elements,
        interior_size=interior_count,
        steps=steps,
        fill_fractions=fills,
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


# window_radius entries of trace_validate for windows it does not check
_LEAVES, _NONLOCAL = -1, -2


def trace_validate(trace: SimulationTrace, ideal: IdealSpec) -> ValidationReport:
    """Check every step of the trace against the local criterion: around
    each colored point whose window fits inside the region, the window must
    be a member. A window is judged again at each step that colours a point
    within the largest finite radius R of its centre; windows no step
    touches cannot change, so this covers every (step, point) pair the
    direct definition would. The distance is symmetric, so the steps that
    touch x's window are the steps of the points in x's row of
    ``neighbors(R)``.

    The trace is judged whole, in region indices: each point's step, colour
    code and window radius are scattered from the step arrays once, and
    for each window radius one ``contains_windows`` call judges every
    (step t, point x) pair of a block of coloured points, on x's window as
    it stood after step t (slots coloured later read NO_COLOR). Blocks keep
    every scratch array within _PAIR_CELLS cells. Failures are listed by
    step, then in ``sort_key`` order. A trace colours each point at most
    once (``SimulationTrace``), so a point's colour is its only one."""
    g = trace.group
    if ideal.group != g:
        raise ValueError(f"the ideal is on {ideal.group.spec_string()}, the trace on {g.spec_string()}")
    T = trace.config.window_radius + trace.config.margin
    region = _region_of(g, T)
    elements = region.elements
    n = len(elements)
    report = ValidationReport()
    index: Dict[object, int] = {}  # each colour used, as a small int
    kinds = [index.setdefault(c, len(index)) for c, _at in trace.steps]
    palette = list(index)
    radius = [ideal.locality_radius(c) for c in palette]
    finite = [rc for rc in radius if not isinstance(rc, Infinity)]
    reach = region.neighbors(radius_floor(max(finite)) if finite else 0)
    window_radii = sorted({radius_floor(rc) for rc in finite})

    # per point, and at the sentinel index: its step (1-based; past the
    # last where never coloured), its colour as an index into palette
    # (-1 for none), and from that its colour code and window radius:
    # floor(r_c), or _NONLOCAL where r_c is infinite, or _LEAVES where the
    # point is uncoloured or its window leaves the region (the window fits
    # iff |x| + ceil(r_c) <= T)
    last = len(trace.steps)
    counts = [len(at) for _c, at in trace.steps]
    points = np.concatenate([np.zeros(0, dtype=np.int64), *(at for _c, at in trace.steps)])
    step_of = np.full(n + 1, last + 1, dtype=np.int64)
    step_of[points] = np.repeat(np.arange(1, last + 1), counts)
    kind = np.full(n + 1, -1, dtype=np.int64)
    kind[points] = np.repeat(np.array(kinds, dtype=np.int64), counts)
    color_codes = np.array([*map(ideal.color_code, palette), NO_COLOR], dtype=np.int64)[kind]
    floors = [_NONLOCAL if isinstance(rc, Infinity) else radius_floor(rc) for rc in radius]
    ceils = [0 if isinstance(rc, Infinity) else radius_ceil(rc) for rc in radius]
    window_radius = np.array([*floors, _LEAVES], dtype=np.int64)[kind]
    leaves = np.append(region.norms, 0) + np.array([*ceils, 0], dtype=np.int64)[kind] > T
    window_radius[(window_radius >= 0) & leaves] = _LEAVES

    def window_at(j: int, r: int, t: int) -> PartialColoring:
        """Point j's radius-r window after step t."""
        row = region.neighbors(r)[j]
        row = row[step_of[row] <= t]
        return PartialColoring._of_valid(
            g, {elements[k]: palette[c] for k, c in zip(row.tolist(), kind[row].tolist())}
        )

    failing = []  # (t, x) of each window judged not a member
    centres = np.flatnonzero(window_radius[:-1] != _LEAVES)  # judged, or skipped as non-local
    rows = max(1, _PAIR_CELLS // reach.shape[1] ** 2)
    for lo in range(0, len(centres), rows):
        block = centres[lo : lo + rows]
        # the distinct steps, from x's own on, that colour a point of x's row
        touched = np.sort(step_of[reach[block]], axis=1)
        keep = (touched >= step_of[block, None]) & (touched <= last)
        keep[:, 1:] &= touched[:, 1:] != touched[:, :-1]
        a, b = np.nonzero(keep)
        t, x = touched[a, b], block[a]
        radii = window_radius[x]
        report.skipped_nonlocal += int((radii == _NONLOCAL).sum())
        for r in window_radii:
            on = radii == r
            if not on.any():
                continue
            tr, xr = t[on], x[on]
            W = region.neighbors(r)[xr]
            member = ideal.contains_windows(
                np.where(step_of[W] <= tr[:, None], color_codes[W], NO_COLOR),
                region.slot_distances(r),
                lambda row: window_at(xr[row], r, tr[row]),
            )
            report.windows_checked += len(xr)
            failing.extend(zip(tr[~member].tolist(), xr[~member].tolist()))
    # region order is not sort_key order on Z^d
    for t, j in sorted(failing, key=lambda tj: (tj[0], g.sort_key(elements[tj[1]]))):
        report.failures.append(
            {"step": t, "element": g.element_to_json(elements[j]),
             "window": window_at(j, int(window_radius[j]), t).to_json()}
        )
    return report


@dataclass
class EquivarianceReport:
    shift_element: object
    safe_size: int
    mismatches: List[dict] = field(default_factory=list)
    cone_radius: object = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_jsonable(self):
        return {
            "shift": self.shift_element,
            "safe_size": self.safe_size,
            "cone_radius": str(self.cone_radius),
            "mismatches": self.mismatches,
            "ok": self.ok,
        }


def equivariance_check(config: SimulationConfig, gamma) -> EquivarianceReport:
    """Run once with the standard field and once with the field read at
    shifted positions; the colorings must agree — the second run's value at
    x must equal the first run's value at x*gamma — on every point whose
    full dependency cone lies inside the region in both frames."""
    config.validate()
    g = config.ideal.group
    g.validate(gamma)
    if config.forced_supports:
        raise ValueError("equivariance checks need field-driven supports, not fixtures")
    T = config.window_radius + config.margin
    region = _region_of(g, T)

    base = run(config)
    index, codes = region.right_translate(gamma)
    moved = run(config, _field_codes=codes)

    cone = sum((2 * R_i for R_i in base.reaches[:-1]), 0)
    safe = np.append(region.norms + radius_ceil(cone) <= T, False)  # the sentinel is never safe
    counted = np.flatnonzero(safe[:-1] & safe[index])

    ids: Dict[object, int] = {}  # each colour seen, as a small int
    final = np.full((2, len(region.elements)), -1, dtype=np.int64)  # per run: each point's colour id, or -1
    for row, trace in zip(final, (moved, base)):
        for color, at in trace.steps:
            row[at] = ids.setdefault(color, len(ids))
    shifted, at_target = final[0][counted], final[1][index[counted]]
    report = EquivarianceReport(
        shift_element=g.element_to_json(gamma), safe_size=len(counted), cone_radius=cone
    )
    colors = [*ids, None]  # id -1, no colour, reads the last entry
    differ = shifted != at_target
    for i, a, b in zip(counted[differ].tolist(), shifted[differ].tolist(), at_target[differ].tolist()):
        report.mismatches.append(
            {"element": g.element_to_json(region.elements[i]), "shifted_run": colors[a],
             "base_run_at_shifted_point": colors[b]}
        )
    return report


# -- sparse multi-scale coloring ---------------------------------------------------


def _greedy_distance_coloring(region: Region, d_c: int) -> list:
    """Greedy proper coloring of the graph joining points at distance <= d_c,
    visiting the region in its fixed breadth-first order: each point takes
    the least colour none of its earlier neighbours has. The neighbours come
    from ``dist_packed`` over the packed region, a block of rows at a time
    (from ``dist`` where the words are too long to pack). When d_c reaches
    the region's diameter the graph is complete and the result is the visit
    index itself. Kept on the region, per d_c."""
    if d_c in region.etas:
        return region.etas[d_c]
    g, elements, packed = region.group, region.elements, region.packed
    n = len(elements)
    if d_c >= 2 * region.radius:
        eta = list(range(n))
    else:
        eta = []
        rows = max(1, _PAIR_CELLS // max(n, 1))
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            D = distance_block(g, elements, packed, np.arange(lo, hi), np.arange(hi))
            a, b = np.nonzero(np.tril(D <= d_c, lo - 1))  # row a: point lo + a and the points before it
            ends = np.searchsorted(a, np.arange(1, hi - lo + 1)).tolist()
            near = b.tolist()
            for start, end in zip([0, *ends], ends):
                taken = {eta[j] for j in near[start:end]}
                color = 0
                while color in taken:
                    color += 1
                eta.append(color)
    region.etas[d_c] = eta
    return eta


def _close_pairs(region: Region, points: list, limit: int):
    """(i, j, dist(x_i, x_j)) for the pairs of region indices i before j in
    ``points`` at distance <= limit, in that pair order: from one
    ``distance_block`` triangle, a block of rows at a time."""
    g, elements, packed = region.group, region.elements, region.packed
    points = np.array(points, dtype=np.int64)
    rows = max(1, _PAIR_CELLS // max(len(points), 1))
    for lo in range(0, len(points), rows):
        D = distance_block(g, elements, packed, points[lo : lo + rows], points[lo:])
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
    normalized by shifting the center to the identity, that occur at least
    ``min_occurrences`` times. Sorted canonically for determinism."""
    g = omega.group
    dom = set(omega.domain())
    counts: Dict[tuple, PartialColoring] = {}
    seen: Dict[tuple, int] = {}
    for gamma in omega.domain():
        ball_pts = g.ball(gamma, shape_radius)
        if not all(e in dom for e in ball_pts):
            continue
        normalized = shift(omega.restrict(ball_pts), gamma)
        key = normalized.canonical_key()
        counts[key] = normalized
        seen[key] = seen.get(key, 0) + 1
    out = [counts[k] for k, c in seen.items() if c >= min_occurrences]
    out.sort(key=lambda p: p.canonical_key())
    return out
