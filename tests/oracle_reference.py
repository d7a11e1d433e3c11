"""The two exhaustive oracles as recursive backtrackers, kept as the tests'
independent reference for ``infty_check`` and ``extension_oracle``, which
share one iterative search. Each closure recurses once per coloured point,
so these references stop at the interpreter's recursion limit; the tests
compare them on balls well inside it."""

from typing import Dict, Optional, Sequence

from shiftcolor.groups import identity_ball, parse_group
from shiftcolor.ideals import IdealSpec, _check_d_sequence, col_window_check
from shiftcolor.oracles import INCONCLUSIVE, REFUTED, WITNESS, ExhaustiveSearchReport
from shiftcolor.patterns import PartialColoring
from shiftcolor.radii import INF, Infinity, as_radius, radius_floor


def reference_infty_check(group, d: Sequence[int], c: int, node_budget: int = 2_000_000) -> ExhaustiveSearchReport:
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


def reference_extension_oracle(
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
    if palette_max < 0:
        raise ValueError(f"palette_max must be nonnegative, got {palette_max}")
    if node_budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {node_budget}")
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
