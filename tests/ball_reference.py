"""The breadth-first ball enumeration, kept as the tests' independent
reference for ``Group.ball``, ``identity_ball`` and the array-built regions,
the sort-and-search construction of Z^d balls that the lattice-point
construction of ``FreeAbelian.ball_arrays`` replaced, the sorted search
of element codes that ``Region.locate``'s reading of the layout replaced,
and the points' norms by the scalar ``Group.norm``."""

import numpy as np

from shiftcolor.groups import index_dtype, refuse_ball
from shiftcolor.radii import Infinity, radius_floor
from shiftcolor.rng import element_codes


def code_search(region, elements):
    """Each element's region index, or the sentinel len(region) outside the
    region, as int64, found by its code: the elements within radius of the
    identity are coded and searched for among the region's codes, sorted."""
    g = region.group
    packed = g.pack(elements)
    order = np.argsort(region.codes)
    index = np.full(len(packed), len(region), dtype=np.int64)
    inside = np.flatnonzero(g.dist_packed(g.pack([g.identity()]), packed) <= region.radius)
    index[inside] = order[np.searchsorted(region.codes, element_codes(g, packed[inside]), sorter=order)]
    return index


def ball_norms(group, elements) -> np.ndarray:
    """Each element's norm by the scalar ``group.norm``, as int64: the
    reference for every "|x| <= r" a test reads from a ball's layout, over
    ``bfs_ball`` or a region's elements."""
    return np.array([group.norm(x) for x in elements], dtype=np.int64)


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


def sorted_ball_coords(self, radius):
    """Ball(1, radius) as int64 coordinate rows in ``ball_arrays``' order,
    and their norms."""
    # Ball_{d+1}(r) is {(x0, y) : y in Ball_d(r - |x0|)}, and each such
    # Ball_d(r - |x0|) is a prefix of the norm-sorted Ball_d(r), so every
    # dimension costs one gather and one lexsort by (norm, coordinates),
    # which is breadth-first order with layers sorted by sort_key.
    refuse_ball(self, radius)
    radius = max(radius, -1)
    k = np.arange(2 * radius + 1)
    norms = (k + 1) // 2
    coords = np.where(k % 2 == 1, -norms, norms)[:, None]  # 0, -1, 1, -2, 2, ...
    for _ in range(self.dimension - 1):
        sizes = np.bincount(norms, minlength=radius + 1).cumsum()
        x0 = np.arange(-radius, radius + 1)
        lengths = sizes[radius - np.abs(x0)]
        head = np.repeat(x0, lengths)
        tail = np.arange(len(head)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        coords = np.column_stack([head, coords[tail]])
        norms = np.abs(head) + norms[tail]
        order = np.lexsort([*coords.T[::-1], norms])
        coords, norms = coords[order], norms[order]
    return coords, norms


def sorted_ball_arrays(self, radius):
    """``FreeAbelian.ball_arrays``, ``(table, coords)``, by a lexsort per
    dimension and a searchsorted of the neighbours' keys."""
    coords, norms = sorted_ball_coords(self, radius)
    n, d = coords.shape
    # Table entries: each row's neighbours along the generators (±e_i in
    # order), found by searchsorted on the key norm * R^d + the digits
    # c_i + T + 1 in base R = 2T + 3, ascending in the ball's (norm,
    # coordinates) order, Python ints where they pass int64. A move by
    # ±e_i adds ±R^(d-1-i), and ±R^d as it grows or shrinks |c_i|.
    T, R = max(radius, 0), 2 * max(radius, 0) + 3
    dtype = np.int64 if (T + 2) * R**d <= 1 << 63 else object
    rows = coords.astype(dtype)
    keys = np.abs(rows).sum(axis=1) * R**d + sum((rows[:, i] + T + 1) * R ** (d - 1 - i) for i in range(d))
    wanted = np.column_stack([
        keys + (2 * grows - 1).astype(dtype) * R**d + sign * R ** (d - 1 - i)
        for i in range(d) for sign, grows in ((1, coords[:, i] >= 0), (-1, coords[:, i] <= 0))
    ])
    hit = np.minimum(np.searchsorted(keys, wanted), n - 1)
    table = np.full((2 * d, n + 1), n, dtype=index_dtype(n))
    table[:, :n] = np.where(keys[hit] == wanted, hit, n).T
    return table, coords
