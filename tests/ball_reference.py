"""The breadth-first ball enumeration, kept as the tests' independent
reference for ``Group.ball``, ``identity_ball`` and the array-built regions."""

from shiftcolor.radii import Infinity, radius_floor


def bfs_ball(group, center, r):
    """Ball(center, r) by breadth-first search from the center, applying
    each generator on the left, each layer sorted canonically."""
    if isinstance(r, Infinity):
        raise ValueError("cannot enumerate a ball of infinite radius")
    depth = radius_floor(r) if r >= 0 else -1
    if depth < 0:
        return []
    out = [center]
    seen = {center}
    frontier = [center]
    for _ in range(depth):
        nxt = []
        for x in frontier:
            for s in group.generators():
                y = group.mul(s, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        nxt.sort(key=group.sort_key)
        out.extend(nxt)
        frontier = nxt
    return out
