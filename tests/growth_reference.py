"""Member growth as it was before growth trusted its own invariant, kept as
the tests' reference for ``grow_random_member``, ``IdealSpec.extend_at``,
``extend_reduced`` and ``reduced_contains``. Every step of growth goes
through the public ``extend_at``, which checks that the pattern grown so
far is a member; a pairwise colour measures its distances again, and a
reduced window is measured three times. The bodies are the replaced code,
with ``self`` as ``P`` and each kind's method chosen by ``isinstance``."""

from shiftcolor.groups import BudgetError, ball_size, identity_ball
from shiftcolor.ideals import PairwiseIdeal
from shiftcolor.patterns import truncated_window
from shiftcolor.radii import Infinity, radius_ceil
from shiftcolor.reduction import ReducedIdeal, monotone_R, project


def admits(P, phi, gamma, c):
    """Whether phi + (gamma, c) is a member, for phi - gamma a member."""
    if not isinstance(P, PairwiseIdeal):
        return P.contains(phi.with_entry(gamma, c))
    # only the pairs through gamma are tested
    if not P._in_palette(c):
        return False
    row, dist = P._bands[c], P.group.dist
    for y, cy in phi.entries.items():
        band = row[cy]
        if band is not None and band[0] <= dist(gamma, y) <= band[1]:
            return False
    return True


def extend_at(P, phi, gamma, c_max=None):
    """Least color c <= c_max with phi + (gamma, c) a member, or None.
    phi + (gamma, c) restricts to phi - gamma, so membership of phi -
    gamma is checked once and each color then goes through ``admits``.
    Preconditions are the caller's business; see is_extendable_at."""
    if isinstance(P, ReducedIdeal):
        try:
            return extend_reduced(P, phi, gamma, c_max=c_max)
        except BudgetError:
            return None
    if c_max is None:
        c_max = _default_c_max(P, phi, gamma)
    bound = P.max_color()
    if bound is not None:
        c_max = min(c_max, bound)
    if c_max < 0:
        return None
    P.group.validate(gamma)
    if gamma in phi:
        phi = phi.remove([gamma])
    if not P.contains(phi):
        return None
    return next((c for c in range(c_max + 1) if admits(P, phi, gamma, c)), None)


def _default_c_max(P, phi, gamma):
    used = [c for c in phi.entries.values() if isinstance(c, int)]
    radii = []
    bound = P.max_color()
    if bound is not None:
        return bound
    for c in set(used) | {0}:
        r = P.locality_radius(c)
        if not isinstance(r, Infinity):
            radii.append(r)
    reach = radius_ceil(max(radii)) if radii else 1
    # |Ball(gamma, reach)| = |Ball(1, reach)| by right invariance
    return (max(used) if used else 0) + ball_size(P.group, reach) + 1


def grow_random_member(P, rng, size, radius=8, c_max=None):
    """A random member of P, grown greedily: repeatedly pick an uncolored
    point in Ball(1, radius) and give it the least color that keeps the
    pattern in P. Growth that cannot proceed is simply skipped, so the
    result is always a member (possibly smaller than ``size``)."""
    ballpts = identity_ball(P.group, radius)
    phi = P.empty()
    for _ in range(size * 3):
        if len(phi) >= size:
            break
        gamma = ballpts[rng.randrange(len(ballpts))]
        if gamma in phi:
            continue
        c = extend_at(P, phi, gamma, c_max)
        if c is not None:
            phi = phi.with_entry(gamma, c)
    return phi


def reduced_contains(RI, phi):
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


def extend_reduced(RI, phi, gamma, c_max=None):
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
    c = extend_at(RI.base, psi, gamma, c_max)
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
