"""Join-property and locality checks, and the product-coded reduced ideal.

The join property asks for an invariant radius map R such that patterns
whose domains are pairwise further apart than the sum of their R-values can
be unioned without leaving the ideal. Locality asks that membership be
determined by fixed-radius windows around each colored point; every local
ideal has the join property via R(phi) = sup of the window radii used.

The reduced ideal P' over product colors (h, c) makes an arbitrary ideal P
with a monotone join function R into a local one: a pattern belongs to P'
iff around every point, with h its first coordinate, the second coordinates
of the h-truncated radius-3h window form a member of P that fits in the
radius-h ball and has R-value at most h. Projecting the second coordinate
carries P' into P, and members of P' peel into pairwise-separated members
of P — the machinery the decompose/extend operations implement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, List, Optional, Sequence, Tuple

from .groups import BudgetError, identity_ball, set_dist
from .ideals import ConstantJoin, IdealSpec, JoinFn, SupRadiiJoin, col_window_check, grow_random_member
from .patterns import PartialColoring, shift, truncated_window
from .radii import INF, Infinity, Radius, radius_ceil, radius_to_json
from .reports import Report


def monotone_R(R: JoinFn, phi: PartialColoring) -> Radius:
    """The monotone envelope sup{R(psi) : psi a subpattern of phi}.

    Equals R(phi) for join functions declared monotone; otherwise computed
    by exhaustive subset enumeration, which is refused beyond 14 points.
    The empty pattern always yields 0 (sup over nothing).
    """
    if len(phi) == 0:
        return 0
    if R.monotone:
        return R.value(phi)
    dom = list(phi.domain())
    if len(dom) > 14:
        raise BudgetError(
            f"subset enumeration over {len(dom)} points refused (limit 14); "
            "declare the join function monotone instead"
        )
    best: Radius = 0
    for k in range(len(dom) + 1):
        for sub in combinations(dom, k):
            v = R.value(phi.restrict(sub))
            if v > best:
                best = v
    return best


def separated(phi: PartialColoring, psi: PartialColoring, R: JoinFn) -> bool:
    """Are the two domains further apart than R(phi) + R(psi)? Exact; an
    empty domain gives infinite distance, hence separation."""
    return phi.domain_dist(psi) > R.value(phi) + R.value(psi)


def derived_join_from_local(r: Callable[[int], Radius], description=None) -> JoinFn:
    """The join function a local ideal inherits: R(phi) = sup of r over the
    colors phi uses."""
    return SupRadiiJoin(r, description=description)


# -- join property check -------------------------------------------------------


@dataclass
class JoinReport(Report):
    samples: int = 0
    empty_member: Optional[bool] = None
    violations: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.empty_member is not False and not self.violations


def _place_separated(
    P: IdealSpec,
    R: JoinFn,
    pieces: Sequence[PartialColoring],
    rng: random.Random,
) -> Optional[List[PartialColoring]]:
    """Shift the pieces to random positions until they verify as pairwise
    separated. Returns None if placement keeps failing (it will not for
    finite R over our infinite groups; the range doubles on each retry)."""
    g = P.group
    reach = 4
    for piece in pieces:
        v = R.value(piece)
        if isinstance(v, Infinity):
            return None
        extent = max((g.dist(g.identity(), e) for e in piece.domain()), default=0)
        reach += 2 * extent + 2 * radius_ceil(v) + 2
    for _ in range(60):
        placed = []
        for piece in pieces:
            t = g.element_at_distance(rng.randrange(reach + 1))
            flip = rng.random() < 0.5
            placed.append(shift(piece, g.inv(t) if flip else t))
        if all(
            separated(a, b, R)
            for i, a in enumerate(placed)
            for b in placed[i + 1 :]
        ):
            return placed
        reach *= 2
    return None


def check_join(
    P: IdealSpec,
    R: JoinFn,
    tuple_size_max: int,
    samples: int,
    seed: int,
    fixtures: Optional[Sequence[Sequence[PartialColoring]]] = None,
    radius: int = 6,
    piece_size: int = 4,
) -> JoinReport:
    """Sample tuples of members of P, move them to verified pairwise
    R-separated positions, and test that the union is still a member.
    Explicit fixture tuples, when given, are checked first, at their stated
    positions when already separated (otherwise after placement)."""
    if samples < 0:
        raise ValueError(f"sample count must be nonnegative, got {samples}")
    rng = random.Random(seed)
    report = JoinReport()
    report.empty_member = P.contains(P.empty())

    def assess(pieces: Sequence[PartialColoring]):
        union = P.empty()
        try:
            for piece in pieces:
                union = union.union(piece)
        except ValueError:
            return  # overlapping domains: not a separated tuple after all
        if not P.contains(union):
            report.violations.append(
                {
                    "pieces": [p.to_json() for p in pieces],
                    "union": union.to_json(),
                }
            )

    for fixture in fixtures or ():
        pieces = list(fixture)
        if all(
            separated(a, b, R) for i, a in enumerate(pieces) for b in pieces[i + 1 :]
        ):
            assess(pieces)
        else:
            placed = _place_separated(P, R, pieces, rng)
            if placed is not None:
                assess(placed)
        report.samples += 1

    for _ in range(samples):
        k = rng.randint(0, tuple_size_max)
        pieces = [
            grow_random_member(P, rng, rng.randint(1, piece_size), radius)
            for _ in range(k)
        ]
        pieces = [p for p in pieces if len(p)]
        placed = _place_separated(P, R, pieces, rng)
        report.samples += 1
        if placed is None:
            continue
        assess(placed)
    return report


# -- locality check -------------------------------------------------------------


@dataclass
class LocalReport(Report):
    members_checked: int = 0
    loc_members_examined: int = 0
    containment_violations: List[dict] = field(default_factory=list)
    counterexamples: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.containment_violations and not self.counterexamples


def check_local(
    P: IdealSpec,
    r: Callable[[int], Radius],
    enumeration_budget: int,
    seed: int,
    radius: int = 6,
    max_size: int = 4,
    color_bound: Optional[int] = None,
) -> LocalReport:
    """Two-sided locality check for P against the window radii r.

    Sampled members of P must satisfy the window criterion (they always do
    for restriction-closed ideals — a failure is reported loudly). Random
    patterns satisfying the window criterion are then tested for membership;
    each one that fails is a counterexample to locality.
    """
    if enumeration_budget < 0:
        raise ValueError(f"enumeration budget must be nonnegative, got {enumeration_budget}")
    rng = random.Random(seed)
    g = P.group
    report = LocalReport()
    pts = identity_ball(g, radius)
    if color_bound is None:
        color_bound = P.max_color()
    if color_bound is None:
        color_bound = 8

    budget = enumeration_budget
    while budget > 0 and report.members_checked < enumeration_budget // 2:
        budget -= 1
        phi = grow_random_member(P, rng, rng.randint(0, max_size), radius)
        report.members_checked += 1
        if not col_window_check(phi, P, r):
            report.containment_violations.append({"pattern": phi.to_json()})

    while budget > 0:
        budget -= 1
        size = rng.randint(1, max_size)
        entries = {}
        for _ in range(size):
            entries[pts[rng.randrange(len(pts))]] = rng.randint(0, color_bound)
        phi = PartialColoring._of_valid(g, entries)
        if not col_window_check(phi, P, r):
            continue
        report.loc_members_examined += 1
        if not P.contains(phi):
            report.counterexamples.append({"pattern": phi.to_json()})
    return report


# -- the reduced (product-coded) ideal -------------------------------------------


def project(phi: PartialColoring) -> PartialColoring:
    """Drop the first coordinate of every product color."""
    out = {}
    for e, c in phi.entries.items():
        if not isinstance(c, tuple):
            raise ValueError("project expects a product-coded pattern")
        out[e] = c[1]
    return PartialColoring._of_valid(phi.group, out)


class ReducedIdeal(IdealSpec):
    """The local product-coded companion of (base, R); see the module
    docstring. R must be monotone for restriction-closure (the shipped
    forms are); non-monotone functions are folded through their monotone
    envelope, at exponential cost."""

    kind = "Reduced"

    def __init__(self, base: IdealSpec, R: JoinFn):
        self.base = base
        self.R = R
        self.group = base.group

    def contains(self, phi: PartialColoring) -> bool:
        return reduced_contains(self, phi)

    def locality_radius(self, color) -> Radius:
        h, _ = color
        return 3 * h

    def extend_at(self, phi: PartialColoring, gamma, c_max: Optional[int] = None):
        try:
            return extend_reduced(self, phi, gamma, c_max=c_max)
        except BudgetError:
            return None

    def to_json(self):
        return {"kind": self.kind, "base": self.base.to_json(), "R": self.R.to_json()}


def join_fn_from_json(obj, base: Optional[IdealSpec] = None) -> JoinFn:
    if obj == "derived":
        if base is None:
            raise ValueError("'derived' join function needs an ideal to derive from")
        return derived_join_from_local(base.locality_radius)
    form = obj.get("form") if isinstance(obj, dict) else None
    if form == "Constant":
        return ConstantJoin(obj["value"])
    if form == "SupOfRadii":
        r = obj.get("r")
        if r == "derived" or r is None:
            if base is None:
                raise ValueError("SupOfRadii join function needs an ideal to derive from")
            return derived_join_from_local(base.locality_radius)
        from .radii import as_radius

        table = [as_radius(v) for v in r]

        def lookup(c, table=table):
            if not isinstance(c, int) or not 0 <= c < len(table):
                raise ValueError(f"no radius listed for color {c!r}")
            return table[c]

        return SupRadiiJoin(lookup, description=[radius_to_json(v) for v in table])
    raise ValueError(f"unknown join function form {obj!r}")


def reduced_contains(RI: ReducedIdeal, phi: PartialColoring) -> bool:
    """Membership in the reduced ideal: at every colored point gamma with
    product color (h, c), the h-truncated radius-3h window must project to a
    base member that sits inside Ball(gamma, h) and has R-value at most h."""
    g = RI.group
    for e, c in phi.entries.items():
        if not isinstance(c, tuple):
            raise ValueError("reduced patterns use product colors (h, c)")
    for gamma, (h, _c) in phi.entries.items():
        win = truncated_window(phi, gamma, 3 * h, h)
        if any(g.dist(gamma, e) > h for e in win.domain()):
            return False
        psi = project(win)
        if not RI.base.contains(psi):
            return False
        if not monotone_R(RI.R, psi) <= h:
            return False
    return True


@dataclass(frozen=True)
class Decomposition(Report):
    pieces: Tuple[PartialColoring, ...]
    h_bound: int


def decompose(RI: ReducedIdeal, phi: PartialColoring) -> Decomposition:
    """Peel a member of the reduced ideal into pieces: repeatedly take a
    point attaining the current maximum first coordinate h (canonical-order
    tie break) and split off everything within distance 3h of it. The
    projected pieces are pairwise separated members of the base ideal with
    R-value at most the overall h bound — verified by the test suite, relied
    on downstream."""
    if not reduced_contains(RI, phi):
        raise ValueError("decompose needs a member of the reduced ideal")
    g = RI.group
    h_bound = max((c[0] for c in phi.entries.values()), default=0)
    pieces = []
    cur = phi
    while len(cur):
        h = max(c[0] for c in cur.entries.values())
        candidates = [e for e, c in cur.entries.items() if c[0] == h]
        gamma0 = min(candidates, key=g.sort_key)
        piece_dom = [e for e in cur.domain() if g.dist(gamma0, e) <= 3 * h]
        pieces.append(cur.restrict(piece_dom))
        cur = cur.remove(piece_dom)
    return Decomposition(tuple(pieces), h_bound)


def extend_reduced(
    RI: ReducedIdeal,
    phi: PartialColoring,
    gamma,
    c_max: Optional[int] = None,
) -> Tuple[int, int]:
    """A product color (h, c) whose addition at gamma keeps phi in the
    reduced ideal: c is the least base color extending the projection at
    gamma, and h is minimal subject to dominating R of the extended
    projection, exceeding every first coordinate already present, and
    reaching the whole extended domain from gamma."""
    if gamma in phi:
        raise ValueError(f"{gamma!r} is already colored")
    if not reduced_contains(RI, phi):
        raise ValueError("extend_reduced needs a member of the reduced ideal")
    g = RI.group
    psi = project(phi)
    if c_max is None:
        c_max = RI.base.max_color()
    c = RI.base.extend_at(psi, gamma, c_max)
    if c is None:
        raise BudgetError(
            f"no base color within budget extends the projection at {gamma!r}"
        )
    psi_ext = psi.with_entry(gamma, c)
    h = 0
    rv = monotone_R(RI.R, psi_ext)
    if isinstance(rv, Infinity):
        raise BudgetError("the join function is unbounded on the extended projection")
    h = max(h, radius_ceil(rv))
    for e, (hh, _cc) in phi.entries.items():
        h = max(h, hh + 1)
    for e in psi_ext.domain():
        h = max(h, g.dist(gamma, e))
    extended = phi.with_entry(gamma, (h, c))
    if not reduced_contains(RI, extended):
        raise AssertionError(
            "extend_reduced produced a non-member; this is a bug in the reduction"
        )
    return (h, c)
