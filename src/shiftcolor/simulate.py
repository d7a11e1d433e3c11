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
are reproducible and shift-equivariant up to boundary effects.

The default schedule cycles through the ideal's palette with a warm-up:
rounds before R_i reaches its maximum get empty supports (the schedule still
advances). This keeps every accepted assignment checked at full window
radius — without it, two adjacent points could legally take the same color
in a round with R_i = 0, which the fixtures demonstrate on purpose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .groups import Group, parse_group
from .ideals import IdealSpec
from .patterns import PartialColoring, shift
from .radii import Infinity, Radius, radius_ceil, radius_floor
from .rng import RandomField, element_codes


@lru_cache(maxsize=8)
def _offsets(group: Group, r: Radius) -> tuple:
    """Ball(1, r) in breadth-first order."""
    return tuple(group.ball(group.identity(), r))


def _window(g: Group, cur: Mapping, center, r: Radius) -> dict:
    """The entries of ``cur`` within distance r of ``center``. By right
    invariance dist(center, w*center) = |w|, so they sit at w*center for w
    in Ball(1, r)."""
    near = (g.mul(w, center) for w in _offsets(g, r))
    return {x: cur[x] for x in near if x in cur}


class Region:
    """Ball(1, radius) with what the window process reads about it, built
    from integer arrays by ``Group.ball_arrays`` with no loop over its
    elements: the elements in ``Group.ball``'s order and their index, their
    norms (the breadth-first layer), their element codes, the generator
    table ``step[i, k]``, the index of gens[k] * x_i (n where that leaves
    the region), and ``distances(i)``, the distances from x_i to the points
    before it. Built lazily on top: a neighbour table and the sparse run's
    greedy colourings."""

    def __init__(self, group: Group, radius: int):
        self.group = group
        self.radius = radius
        self.elements, self.norms, step, self.distances = group.ball_arrays(radius)
        n = len(self.elements)
        self.index = dict(zip(self.elements, range(n)))
        self.codes = element_codes(group, self.elements)
        ordered = np.sort(self.codes)
        if (ordered[1:] == ordered[:-1]).any():
            raise RuntimeError(f"element codes collide on the radius-{radius} region of {group.name}")
        self._step = np.vstack([step, np.full((1, step.shape[1]), n)])
        for a in (self.norms, self.codes, self._step):
            a.flags.writeable = False  # shared by every caller
        self.etas: Dict[int, list] = {}  # d_c -> greedy colouring, see _greedy_distance_coloring
        self._table = np.arange(n, dtype=np.int64)[:, None]

    def neighbors(self, s: int) -> np.ndarray:
        """Column j of row i: the index of w_j * x_i, where w_j is offset j of
        Ball(1, s), or the sentinel len(elements) where that leaves the
        region. The table is built for the widest s asked for so far; a
        narrower s reads its first |Ball(1, s)| columns."""
        width = len(_offsets(self.group, s))
        if self._table.shape[1] < width:
            self._table = self._build_table(s)
        return self._table[:, :width]

    def _build_table(self, s: int) -> np.ndarray:
        # Column w*x is composed from column w'*x through the generator table
        # (whose sentinel row maps the sentinel to itself), where w = a*w'
        # for a generator a and |w'| = |w| - 1, taking whichever such path
        # stays in the region. That is exact for Z^d and F_k: any two points
        # of a ball about the identity are joined by a geodesic inside it.
        g = self.group
        n = len(self.elements)
        offsets = _offsets(g, s)
        column = {w: j for j, w in enumerate(offsets)}
        table = np.full((n, len(offsets)), n, dtype=np.int64)
        table[:, 0] = np.arange(n)
        for j, w in enumerate(offsets):
            for k, a in enumerate(g.generators()):
                t = column.get(g.mul(a, w))
                if t is not None and g.norm(offsets[t]) > g.norm(w):
                    np.minimum(table[:, t], self._step[table[:, j], k], out=table[:, t])
        table.flags.writeable = False
        return table


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
            cycle = list(self.schedule)
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
                if not isinstance(i, int) or i < 0:
                    raise ValueError(f"forced support step {i!r} is not a step index")

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
                str(i): sorted(
                    (g.element_to_json(e) for e in elems),
                    key=lambda x: str(x),
                )
                for i, elems in self.forced_supports.items()
            }
        return out


@dataclass
class SimulationTrace:
    config: SimulationConfig
    region: list
    interior: list
    assigned_sets: List[Tuple[int, Tuple]]  # per step: (color, elements in region order)
    fill_fractions: List[float]
    reaches: List[Radius]  # R_i consumed by step i, plus the final value
    schedule_used: List[int]

    @property
    def group(self) -> Group:
        return self.config.ideal.group

    def iter_colorings(self):
        """Yields the monotone chain of partial colorings, one per step
        boundary (steps + 1 entries)."""
        cur: Dict[object, int] = {}
        yield PartialColoring(self.group, cur)
        for color, elems in self.assigned_sets:
            for e in elems:
                cur[e] = color
            yield PartialColoring(self.group, dict(cur))

    @property
    def colorings(self) -> List[PartialColoring]:
        return list(self.iter_colorings())

    def coloring_at(self, i: int) -> PartialColoring:
        cur: Dict[object, int] = {}
        for color, elems in self.assigned_sets[:i]:
            for e in elems:
                cur[e] = color
        return PartialColoring(self.group, cur)

    @property
    def final_coloring(self) -> PartialColoring:
        return self.coloring_at(len(self.assigned_sets))

    def to_summary_jsonable(self, dump: bool = False) -> dict:
        g = self.group
        out = {
            "config": self.config.to_jsonable(),
            "region_size": len(self.region),
            "interior_size": len(self.interior),
            "steps": len(self.assigned_sets),
            "assigned_counts": [len(elems) for _c, elems in self.assigned_sets],
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


def run(config: SimulationConfig, _field_codes: Optional[np.ndarray] = None) -> SimulationTrace:
    """Execute the iterative randomized coloring on the configured window.

    ``_field_codes`` substitutes the element codes used for field sampling
    (the equivariance check passes codes of shifted elements so the run sees
    a translated copy of the same randomness).
    """
    config.validate()
    ideal = config.ideal
    g = ideal.group
    T = config.window_radius + config.margin
    region = _region_of(g, T)
    n_pts = len(region.elements)
    interior_mask = region.norms <= config.window_radius
    codes = region.codes if _field_codes is None else _field_codes
    if len(codes) != n_pts:
        raise ValueError("field codes must cover the region")
    field_rng = RandomField(g, config.seed, Fraction(config.p))

    cycle = config.cycle()
    r_of = {c: ideal.locality_radius(c) for c in cycle}
    max_r = max(r_of.values())

    colored = np.zeros(n_pts, dtype=bool)
    interior_count = int(interior_mask.sum())

    assigned_sets: List[Tuple[int, Tuple]] = []
    fills = [0.0]
    reaches: List[Radius] = []
    schedule_used: List[int] = []

    reach: Radius = 0  # sup of r over consumed colors; 0 before anything is consumed
    forced = config.forced_supports or {}
    cur: Dict[object, int] = {}

    for i in range(config.steps):
        c_i = cycle[i % len(cycle)]
        reaches.append(reach)
        schedule_used.append(c_i)
        s = radius_floor(2 * reach)

        if i in forced:
            # Fixture path: support sets are tiny, so isolation goes pairwise
            # (a neighbour table for a large 2*reach would dwarf the region).
            supp = forced[i]
            for e in supp:
                g.validate(e)
                if e not in region.index:
                    raise ValueError(f"forced support point {e!r} lies outside the region")
            if len(set(supp)) != len(supp):
                raise ValueError(f"forced supports at step {i} repeat a point")
            candidates = [
                region.index[e]
                for e in sorted(supp, key=region.index.__getitem__)
                if not any(other != e and g.dist(e, other) <= s for other in supp)
            ]
        elif config.warmup and reach < max_r:
            candidates = []  # warm-up round: empty support (the schedule still advances)
        else:
            supp_mask = field_rng.mask(i, codes)
            iso_counts = np.append(supp_mask, False)[region.neighbors(s)].sum(axis=1)
            candidates = np.nonzero(supp_mask & (iso_counts == 1))[0]

        new_elems = []
        for j in candidates:
            e = region.elements[j]
            if colored[j] or region.norms[j] + s > T:
                continue
            window_entries = _window(g, cur, e, s)
            window_entries[e] = c_i
            if ideal.contains(PartialColoring(g, window_entries)):
                new_elems.append(e)
                colored[j] = True
        for e in new_elems:
            cur[e] = c_i

        assigned_sets.append((c_i, tuple(new_elems)))
        fills.append(float((colored & interior_mask).sum()) / interior_count if interior_count else 0.0)
        r_c = r_of[c_i]
        if r_c > reach:
            reach = r_c

    reaches.append(reach)
    return SimulationTrace(
        config=config,
        region=region.elements,
        interior=region.elements[:interior_count],  # breadth-first: the interior is a prefix
        assigned_sets=assigned_sets,
        fill_fractions=fills,
        reaches=reaches,
        schedule_used=schedule_used,
    )


@dataclass
class ValidationReport:
    windows_checked: int = 0
    skipped_nonlocal: int = 0
    failures: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_jsonable(self):
        return {
            "windows_checked": self.windows_checked,
            "skipped_nonlocal": self.skipped_nonlocal,
            "failures": self.failures,
            "ok": self.ok,
        }


def trace_validate(trace: SimulationTrace, ideal: IdealSpec) -> ValidationReport:
    """Check every step of the trace against the local criterion: around
    each colored point whose window fits inside the region, the window must
    be a member. Windows are re-examined whenever a step adds a point that
    touches them; untouched windows cannot change, so this covers every
    (step, point) pair the direct definition would."""
    r = ideal.locality_radius
    g = trace.group
    T = trace.config.window_radius + trace.config.margin
    report = ValidationReport()
    cur: Dict[object, int] = {}

    finite_radii = []
    for c, _elems in trace.assigned_sets:
        rc = r(c)
        if not isinstance(rc, Infinity):
            finite_radii.append(rc)
    max_reach = radius_floor(max(finite_radii)) if finite_radii else 0

    def check_window(gamma, step):
        rc = r(cur[gamma])
        if isinstance(rc, Infinity):
            report.skipped_nonlocal += 1
            return
        if g.norm(gamma) + rc > T:
            return
        window = PartialColoring(g, _window(g, cur, gamma, rc))
        report.windows_checked += 1
        if not ideal.contains(window):
            report.failures.append(
                {"step": step, "element": g.element_to_json(gamma), "window": window.to_json()}
            )

    for step_index, (color, elems) in enumerate(trace.assigned_sets, start=1):
        for e in elems:
            cur[e] = color
        affected = set()
        for e in elems:
            affected.update(_window(g, cur, e, max_reach))
        for gamma in sorted(affected, key=g.sort_key):
            check_window(gamma, step_index)
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
    targets = [g.mul(e, gamma) for e in region.elements]
    moved = run(config, _field_codes=element_codes(g, targets))

    cone = 0
    for R_i in base.reaches[:-1]:
        cone = cone + 2 * R_i
    safe = region.norms + radius_ceil(cone) <= T

    base_final = base.final_coloring
    moved_final = moved.final_coloring
    report = EquivarianceReport(
        shift_element=g.element_to_json(gamma), safe_size=0, cone_radius=cone
    )
    for i in np.nonzero(safe)[0]:
        # a target outside the region has norm > T, so it is not safe
        j = region.index.get(targets[i])
        if j is None or not safe[j]:
            continue
        e = region.elements[i]
        report.safe_size += 1
        a = moved_final.get(e)
        b = base_final.get(targets[i])
        if a != b:
            report.mismatches.append(
                {
                    "element": g.element_to_json(e),
                    "shifted_run": a,
                    "base_run_at_shifted_point": b,
                }
            )
    return report


# -- sparse multi-scale coloring ---------------------------------------------------


def _greedy_distance_coloring(region: Region, d_c: int) -> list:
    """Greedy proper coloring of the graph joining points at distance <= d_c,
    visiting the region in its fixed breadth-first order: each point takes
    the least colour none of its earlier neighbours has, read one row of
    distances at a time. When d_c reaches the region's diameter the graph is
    complete and the result is the visit index itself. Kept on the region,
    per d_c."""
    if d_c in region.etas:
        return region.etas[d_c]
    n = len(region.elements)
    if d_c >= 2 * region.radius:
        eta = list(range(n))
    else:
        colors = np.zeros(n, dtype=np.int64)
        for i in range(1, n):
            near = colors[:i][region.distances(i) <= d_c]
            taken = np.zeros(len(near) + 1, dtype=bool)  # the least free colour is <= len(near)
            taken[near[near <= len(near)]] = True
            colors[i] = taken.argmin()
        eta = colors.tolist()
    region.etas[d_c] = eta
    return eta


@dataclass
class SparseReport:
    window_size: int
    m: int
    coverage: float
    color_counts: Dict[int, int]
    separation_violations: List[dict] = field(default_factory=list)
    targets: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.separation_violations

    def to_jsonable(self):
        return {
            "window_size": self.window_size,
            "m": self.m,
            "coverage": self.coverage,
            "color_counts": {str(k): v for k, v in sorted(self.color_counts.items())},
            "targets": self.targets,
            "separation_violations": self.separation_violations,
            "ok": self.ok,
        }


def sparse_run(group, d: Sequence[int], window_radius: int, m: int, seed: int):
    """The multi-scale sparse coloring on a window: for each scale c < m,
    greedily properly color the distance-<=d_c graph, draw a target value
    uniformly from the colors that coloring realized, and give each point
    the least scale whose coloring hits its target there. Distinct points
    sharing the final color c are then provably more than d_c apart (they
    were adjacent in the scale-c graph otherwise); the report re-verifies
    that by brute force and records coverage."""
    group = parse_group(group)
    d = list(d)
    if m < 0 or m > len(d):
        raise ValueError(f"need 0 <= m <= len(d), got m={m} with {len(d)} scales")
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
    for i, e in enumerate(window):
        for c in range(m):
            if etas[c][i] == targets[c]:
                entries[e] = c
                break
    coloring = PartialColoring(group, entries)

    counts: Dict[int, int] = {}
    for c in entries.values():
        counts[c] = counts.get(c, 0) + 1
    violations = []
    by_color: Dict[int, list] = {}
    for e, c in entries.items():
        by_color.setdefault(c, []).append(e)
    for c, pts in by_color.items():
        for i, x in enumerate(pts):
            for y in pts[i + 1 :]:
                if group.dist(x, y) <= d[c]:
                    violations.append(
                        {
                            "color": c,
                            "a": group.element_to_json(x),
                            "b": group.element_to_json(y),
                            "dist": group.dist(x, y),
                        }
                    )
    report = SparseReport(
        window_size=n,
        m=m,
        coverage=len(entries) / n if n else 0.0,
        color_counts=counts,
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
