"""Brute-force oracles: exhaustive ball-coloring search for the separation
regime, a backtracking pattern-extension oracle, and the rare-color audit.

These deliberately re-derive facts the constructive code already "knows",
through independent code paths, so the two can be compared in tests. All
searches are deterministic: elements are visited in a fixed canonical order
and colors are tried ascending. Work is metered in explored nodes, never
wall time, so reports are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .groups import Group, identity_ball, parse_group
from .ideals import DistanceConstrained, IdealSpec, _check_d_sequence, col_window_check
from .patterns import PartialColoring
from .radii import INF, Infinity, as_radius, radius_floor
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
    if not 0 <= c < len(d):
        raise ValueError(f"color {c} has no scale: need c < len(d) = {len(d)}")
    points = identity_ball(group, d[c])
    n = len(points)
    search_space = (c + 1) ** n
    dist_cache: Dict[tuple, int] = {}

    def dist(i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        if key not in dist_cache:
            dist_cache[key] = group.dist(points[key[0]], points[key[1]])
        return dist_cache[key]

    assignment = [0] * n
    nodes = 0
    witness = None
    valid = 0
    exhausted = False

    def backtrack(i: int) -> bool:
        nonlocal nodes, witness, valid, exhausted
        if i == n:
            valid += 1
            witness = PartialColoring._of_valid(group, {points[j]: assignment[j] for j in range(n)})
            return True
        for color in range(c + 1):
            nodes += 1
            if nodes > node_budget:
                exhausted = True
                return True
            min_gap = 2 * d[color]
            ok = True
            for j in range(i):
                if assignment[j] == color and dist(i, j) <= min_gap:
                    ok = False
                    break
            if ok:
                assignment[i] = color
                if backtrack(i + 1):
                    return True
        return False

    backtrack(0)
    if exhausted:
        outcome = INCONCLUSIVE
    elif witness is not None:
        outcome = WITNESS
    else:
        outcome = REFUTED
    return ExhaustiveSearchReport(
        outcome=outcome,
        search_space=search_space,
        valid_count=valid,
        nodes=nodes,
        budget=node_budget,
        witness=witness,
        detail={"ball_size": n, "scales": d[: c + 1]},
    )


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
    being returned.
    """
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
    if not phi:
        # Ball(empty domain, rho) is empty: phi extends itself, vacuously.
        return ExhaustiveSearchReport(
            outcome=WITNESS,
            search_space=1,
            valid_count=1,
            nodes=0,
            budget=node_budget,
            witness=phi,
            detail={"ball_size": 0, "free_points": 0, "target_radius": radius_floor(rho), "palette_max": palette_max},
        )

    dom = list(phi.domain())
    ball_pts: Dict[object, None] = {}
    for gamma in dom:
        for e in g.ball(gamma, rho):
            ball_pts[e] = None
    todo = [e for e in ball_pts if e not in phi]
    todo.sort(key=lambda e: (min(g.dist(e, gamma) for gamma in dom), g.sort_key(e)))
    n = len(todo)
    search_space = (palette_max + 1) ** n

    check_radius: object = 0
    for color in range(palette_max + 1):
        r = P.locality_radius(color)
        if isinstance(r, Infinity):
            check_radius = INF
            break
        if r > check_radius:
            check_radius = r

    cur = dict(phi.entries)
    nodes = 0
    witness = None
    valid = 0
    exhausted = False

    def feasible(e, color) -> bool:
        """Window check around the new point: exact for kinds whose
        membership decomposes over point-centered windows, a sound
        relaxation otherwise (complete assignments get a full re-check)."""
        cur[e] = color
        try:
            pattern = PartialColoring._of_valid(g, cur)
            if isinstance(check_radius, Infinity):
                return P.contains(pattern)
            return P.contains(pattern.window(e, check_radius))
        finally:
            del cur[e]

    def backtrack(i: int) -> bool:
        nonlocal nodes, witness, valid, exhausted
        if i == n:
            candidate = PartialColoring._of_valid(g, dict(cur))
            if P.contains(candidate):
                valid += 1
                witness = candidate
                return True
            return False
        e = todo[i]
        for color in range(palette_max + 1):
            nodes += 1
            if nodes > node_budget:
                exhausted = True
                return True
            if feasible(e, color):
                cur[e] = color
                if backtrack(i + 1):
                    return True
                del cur[e]
        return False

    backtrack(0)
    if exhausted:
        outcome = INCONCLUSIVE
        witness = None
    elif witness is not None:
        outcome = WITNESS
        assert col_window_check(witness, P), "witness failed independent re-verification"
    else:
        outcome = REFUTED
    return ExhaustiveSearchReport(
        outcome=outcome,
        search_space=search_space,
        valid_count=valid,
        nodes=nodes,
        budget=node_budget,
        witness=witness,
        detail={
            "ball_size": len(ball_pts),
            "free_points": n,
            "target_radius": radius_floor(rho),
            "palette_max": palette_max,
        },
    )


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
    except Exception:
        membership_ok = False
    counts: Dict[int, int] = {}
    for c in omega.entries.values():
        counts[c] = counts.get(c, 0) + 1
    violations = []
    for c, k in sorted(counts.items()):
        if c < len(spec.h) and isinstance(spec.h[c], Infinity) and k > 1:
            violations.append({"color": c, "occurrences": k})
    return RareColorReport(membership_ok=membership_ok, counts=counts, violations=violations)
