"""Brute-force oracles: exhaustive ball-coloring search for the separation
regime, a backtracking pattern-extension oracle, and the rare-color audit.

These deliberately re-derive facts the constructive code already "knows",
through independent code paths, so the two can be compared in tests. Both
exhaustive oracles run one iterative depth-first search, ``_search``, and
keep only their point order, feasibility test and final acceptance; the
search keeps no call stack, so no recursion limit bounds the balls it
colours. All searches are deterministic: elements are visited in a fixed
canonical order and colors are tried ascending. Work is metered in explored
nodes, never wall time, so reports are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .groups import identity_ball, parse_group
from .ideals import DistanceConstrained, IdealSpec, _check_d_sequence, col_window_check
from .patterns import PartialColoring
from .radii import Infinity, as_radius, radius_floor
from .reports import Report

REFUTED = "refuted"
WITNESS = "witness"
INCONCLUSIVE = "inconclusive"


@dataclass
class ExhaustiveSearchReport(Report):
    outcome: str  # "refuted" | "witness" | "inconclusive"
    search_space: int
    valid_count: int
    nodes: int
    budget: int
    witness: Optional[PartialColoring] = None
    detail: dict = field(default_factory=dict)

    @property
    def conclusive(self) -> bool:
        return self.outcome != INCONCLUSIVE


def _search(points, palette_max, allowed, complete, node_budget, placed, detail) -> ExhaustiveSearchReport:
    """Depth-first search for a colouring of ``points``, coloured in their
    order with colours 0..palette_max tried ascending. ``placed`` maps the
    points coloured so far, after any it starts with, to their colours: it
    gains points[i] when ``allowed(i, color)`` admits the colour and gives
    it back on backtracking. With every point coloured, ``complete(placed)``
    returns the witness, or None to search on. Each colour tried is one
    node, and the node past ``node_budget`` ends the search inconclusive.
    So ``--budget`` counts nodes, not time: each node checks the new point
    against every placed point, so n nodes can cost O(n^2) distance
    lookups. The depth is kept in a list, not on the call stack, so only
    memory bounds it."""
    n = len(points)
    tried = [0] * (n + 1)  # colours tried so far at each depth
    nodes = i = 0
    witness = None
    while True:
        if i == n:
            witness = complete(placed)
            if witness is not None:
                outcome = WITNESS
                break
        elif tried[i] <= palette_max:
            color = tried[i]
            tried[i] = color + 1
            nodes += 1
            if nodes > node_budget:
                outcome = INCONCLUSIVE
                break
            if allowed(i, color):
                placed[points[i]] = color
                i += 1
                tried[i] = 0
            continue
        if i == 0:
            outcome = REFUTED
            break
        i -= 1
        placed.popitem()
    return ExhaustiveSearchReport(
        outcome=outcome,
        search_space=(palette_max + 1) ** n,
        valid_count=int(outcome == WITNESS),
        nodes=nodes,
        budget=node_budget,
        witness=witness,
        detail=detail,
    )


def infty_check(group, d: Sequence[int], c: int, node_budget: int = 2_000_000) -> ExhaustiveSearchReport:
    """Can the whole ball of radius d_c be colored with colors {0..c} so that
    same-color-c' points are pairwise more than 2*d_c' apart?

    The separation regime says no: some point of any such ball must exceed
    color c. A "refuted" outcome (zero valid assignments) confirms that
    finitely; a witness would signal a bug upstream. Since distances are
    integers, "dist > 2d" and "dist >= 2d+1" coincide, so this uses the same
    constraint arithmetic as the distance-constrained ideal kind.

    Search: points in breadth-first order from the center, colors ascending,
    rejecting a color as soon as it conflicts with an earlier same-color
    point. Budget exhaustion yields "inconclusive", never "refuted".
    """
    group = parse_group(group)
    d = list(_check_d_sequence(d))
    if node_budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {node_budget}")
    if not 0 <= c < len(d):
        raise ValueError(f"color {c} has no scale: need c < len(d) = {len(d)}")
    points = identity_ball(group, d[c])
    dist_cache: Dict[tuple, int] = {}
    placed: Dict[object, int] = {}

    def allowed(i: int, color: int) -> bool:
        gap = 2 * d[color]
        for j, cj in enumerate(placed.values()):
            if cj == color:
                dij = dist_cache.get((j, i))
                if dij is None:
                    dij = dist_cache[j, i] = group.dist(points[j], points[i])
                if dij <= gap:
                    return False
        return True

    def complete(placed):
        return PartialColoring._of_valid(group, dict(placed))

    detail = {"ball_size": len(points), "scales": d[: c + 1]}
    return _search(points, c, allowed, complete, node_budget, placed, detail)


def infty_counting_bound(d: Sequence[int], c: int) -> dict:
    """Closed-form cross-check on the integer line: an interval of length
    2*d_c + 1 holds at most floor(2*d_c / (2*d_c' + 1)) + 1 points of color
    c'; when these capacities sum below the ball size, no full coloring with
    colors {0..c} can exist."""
    d = _check_d_sequence(d)
    if not 0 <= c < len(d):
        raise ValueError(f"color {c} has no scale: need c < len(d) = {len(d)}")
    ball_size = 2 * d[c] + 1
    capacities = [(2 * d[c]) // (2 * d[cp] + 1) + 1 for cp in range(c + 1)]
    total = sum(capacities)
    return {
        "ball_size": ball_size,
        "capacities": capacities,
        "total_capacity": total,
        "refuted": total < ball_size,
    }


def extension_oracle(
    P: IdealSpec,
    phi: PartialColoring,
    target_radius,
    palette_max: Optional[int] = None,
    node_budget: int = 2_000_000,
) -> ExhaustiveSearchReport:
    """Search for a total coloring of the radius-``target_radius`` ball
    around dom(phi) that extends phi with every restriction in P.

    A refusal certifies that no P-consistent extension exists on that ball —
    the finite approximation of extendability. Budget exhaustion is reported
    as "inconclusive" and must never be read as a refusal. Any witness is
    re-verified against P through an independent membership path before
    being returned. It searches the colours 0..palette_max, so a reduced
    ideal, whose colours are pairs (h, c), is refused (ValueError).
    """
    if P.kind == "Reduced":
        raise ValueError("the extension oracle searches the colours 0..palette_max; "
                         "Reduced colours are not naturals")
    g = P.group
    rho = as_radius(target_radius)
    if isinstance(rho, Infinity):
        raise ValueError("the target radius must be finite")
    if not P.contains(phi):
        raise ValueError("the pattern is not a member of the ideal")
    if palette_max is None:
        palette_max = P.max_color()
        if palette_max is None:
            raise ValueError("the ideal has no finite palette; pass palette_max")
    if palette_max < 0:
        raise ValueError(f"palette_max must be nonnegative, got {palette_max}")
    if node_budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {node_budget}")

    dom = list(phi.domain())
    ball_pts: Dict[object, None] = {}
    for gamma in dom:
        for e in g.ball(gamma, rho):
            ball_pts[e] = None
    todo = [e for e in ball_pts if e not in phi]
    todo.sort(key=lambda e: (min(g.dist(e, gamma) for gamma in dom), g.sort_key(e)))
    detail = {
        "ball_size": len(ball_pts),
        "free_points": len(todo),
        "target_radius": radius_floor(rho),
        "palette_max": palette_max,
    }
    if not phi:  # Ball(empty domain, rho) is empty: phi extends itself, vacuously
        return _search(todo, palette_max, None, lambda placed: phi, node_budget, {}, detail)

    check_radius = 0
    for color in range(palette_max + 1):
        check_radius = max(check_radius, P.locality_radius(color))
        if isinstance(check_radius, Infinity):
            break

    placed = dict(phi.entries)
    pattern = PartialColoring._of_valid(g, placed)  # follows placed as it changes

    def allowed(i: int, color) -> bool:
        """Window check around the new point: exact for kinds whose
        membership decomposes over point-centered windows, a sound
        relaxation otherwise (complete assignments get a full re-check)."""
        e = todo[i]
        placed[e] = color
        ok = P.contains(pattern.window(e, check_radius))
        del placed[e]
        return ok

    def complete(placed):
        return PartialColoring._of_valid(g, dict(placed)) if P.contains(pattern) else None

    report = _search(todo, palette_max, allowed, complete, node_budget, placed, detail)
    if report.witness is not None:
        assert col_window_check(report.witness, P), "witness failed independent re-verification"
    return report


@dataclass
class RareColorReport(Report):
    membership_ok: bool
    counts: Dict[int, int]
    violations: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.membership_ok and not self.violations


def rare_color_check(spec: DistanceConstrained, omega: PartialColoring) -> RareColorReport:
    """Audit a window coloring against the one-shot colors of a
    distance-constrained kind: every color whose height bound is infinite
    may occur at most once. Reports per-color occurrence counts and whether
    the coloring passes the windowed membership check at all."""
    if not isinstance(spec, DistanceConstrained):
        raise TypeError("rare_color_check audits distance-constrained kinds")
    try:
        membership_ok = col_window_check(omega, spec)
    except ValueError:  # PaletteExhausted: a colour past the palette
        membership_ok = False
    counts: Dict[int, int] = {}
    for c in omega.entries.values():
        counts[c] = counts.get(c, 0) + 1
    violations = []
    for c, k in sorted(counts.items()):
        if c < len(spec.h) and isinstance(spec.h[c], Infinity) and k > 1:
            violations.append({"color": c, "occurrences": k})
    return RareColorReport(membership_ok=membership_ok, counts=counts, violations=violations)
