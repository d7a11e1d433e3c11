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
carries P' into P, and members of P' peel into pieces whose projections
are pairwise-separated members of P — the machinery the decompose/extend
operations implement. ``check_reduction`` spot-checks these laws on grown
members of P'.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, List, Optional, Sequence, Tuple

from .groups import BudgetError, identity_ball
from .ideals import ConstantJoin, IdealSpec, JoinFn, SupRadiiJoin, col_window_check, grow_random_member
from .patterns import PartialColoring, shift
from .radii import Infinity, Radius, radius_ceil, radius_to_json
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
    radius: int = 6,
    piece_size: int = 4,
) -> JoinReport:
    """Sample tuples of members of P, move them to verified pairwise
    R-separated positions, and test that the union is still a member."""
    if samples < 0:
        raise ValueError(f"sample count must be nonnegative, got {samples}")
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
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
) -> LocalReport:
    """Two-sided locality check for P against the window radii r.

    Sampled members of P must satisfy the window criterion (they always do
    for restriction-closed ideals — a failure is reported loudly). Random
    patterns satisfying the window criterion are then tested for membership;
    each one that fails is a counterexample to locality. Their colours are
    drawn up to P's largest colour (8 when unbounded); on a reduced ideal
    they are pairs (h, c), with h at most the sampling radius and c up to
    the base's largest colour.
    """
    if enumeration_budget < 0:
        raise ValueError(f"enumeration budget must be nonnegative, got {enumeration_budget}")
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    rng = random.Random(seed)
    g = P.group
    report = LocalReport()
    pts = identity_ball(g, radius)
    reduced = isinstance(P, ReducedIdeal)
    c_max = (P.base if reduced else P).max_color()
    if c_max is None:
        c_max = 8

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
            color = rng.randint(0, c_max)  # drawn before its point
            if reduced:
                color = (rng.randint(0, radius), color)
            entries[pts[rng.randrange(len(pts))]] = color
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
        if not (isinstance(color, tuple) and len(color) == 2):
            raise ValueError(f"reduced colours are pairs (h, c), got {color!r}")
        h, _ = color
        return 3 * h

    def extend_at(self, phi: PartialColoring, gamma, c_max: Optional[int] = None):
        try:
            return extend_reduced(self, phi, gamma, c_max=c_max)
        except BudgetError:
            return None

    def _grow_at(self, phi: PartialColoring, gamma, c_max: Optional[int]):
        """``extend_at`` without ``extend_reduced``'s membership test of phi,
        which the post-check of the step that grew phi has made."""
        try:
            return _extend_member(self, phi, gamma, c_max)
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
        # the h-truncated radius-3h window, one distance a point: a point
        # within h of gamma is projected, one in (h, 3h] leaves Ball(gamma, h)
        window = {}
        for e, (he, ce) in phi.entries.items():
            if he <= h:
                t = g.dist(gamma, e)
                if t <= h:
                    window[e] = ce
                elif t <= 3 * h:
                    return False
        psi = PartialColoring._of_valid(g, window)
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
    return _extend_member(RI, phi, gamma, c_max)


def _extend_member(RI: ReducedIdeal, phi: PartialColoring, gamma, c_max: Optional[int]) -> Tuple[int, int]:
    """``extend_reduced`` for a member phi and an uncolored gamma, checking
    neither. The base's ``extend_at`` still tests the projection, which
    need not be a base member, and the extension is still checked."""
    g = RI.group
    psi = project(phi)
    c = RI.base.extend_at(psi, gamma, c_max)
    if c is None:
        raise BudgetError(
            f"no base color within budget extends the projection at {gamma!r}"
        )
    # extend_at returned a color, so it has validated gamma
    psi_ext = PartialColoring._of_valid(g, {**psi.entries, gamma: c})
    rv = monotone_R(RI.R, psi_ext)
    if isinstance(rv, Infinity):
        raise BudgetError("the join function is unbounded on the extended projection")
    h = max(0, radius_ceil(rv))
    for e, (hh, _cc) in phi.entries.items():
        h = max(h, hh + 1)
    for e in psi_ext.domain():
        h = max(h, g.dist(gamma, e))
    extended = PartialColoring._of_valid(g, {**phi.entries, gamma: (h, c)})
    if not reduced_contains(RI, extended):
        raise AssertionError(
            "extend_reduced produced a non-member; this is a bug in the reduction"
        )
    return (h, c)


# -- the reduction audit ----------------------------------------------------------


@dataclass
class ReductionReport(Report):
    reduced_spec: dict = field(default_factory=dict)
    samples: int = 0
    violations: List[dict] = field(default_factory=list)
    sampled_patterns: List[PartialColoring] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_reduction(RI: ReducedIdeal, samples: int, seed: int) -> ReductionReport:
    """Spot-check the reduced ideal's laws on grown members: the empty
    pattern is a member, a grown sample is one and so is a random
    restriction of it, and a nonempty sample decomposes into pieces that
    keep its entries and whose projections are pairwise R-separated. A
    violation names its kind and the sample; a rejected sample is audited
    no further and is not among the ``sampled_patterns``."""
    if samples < 0:
        raise ValueError(f"sample count must be nonnegative, got {samples}")
    rng = random.Random(seed)
    report = ReductionReport(reduced_spec=RI.to_json(), samples=samples)

    def violation(kind: str, phi: PartialColoring) -> None:
        report.violations.append({"kind": kind, "pattern": phi})

    if not reduced_contains(RI, RI.empty()):
        report.violations.append({"kind": "empty-not-member"})
    for _ in range(samples):
        phi = grow_random_member(RI, rng, size=rng.randint(0, 3), radius=4)
        if not reduced_contains(RI, phi):
            violation("grown-sample-rejected", phi)
            continue
        keep = [e for e in phi.domain() if rng.random() < 0.5]
        if not reduced_contains(RI, phi.restrict(keep)):
            violation("restriction-escapes", phi)
        if phi:
            pieces = decompose(RI, phi).pieces
            merged = {}
            for piece in pieces:
                merged.update(piece.entries)
            if merged != phi.entries:
                violation("decomposition-loses-entries", phi)
            projected = [project(piece) for piece in pieces]
            for i, a in enumerate(projected):
                for b in projected[i + 1 :]:
                    if not separated(a, b, RI.R):
                        violation("decomposition-pieces-not-separated", phi)
        report.sampled_patterns.append(phi)
    return report
