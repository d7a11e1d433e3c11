"""The neighbour table of a region, built whole, kept as the tests'
reference for the windows that ``Region.columns`` and the isolation kernel
compose only for the points that read them. It is the table the window
process once cached in every Region, composed the same way, slot-major in
the region's index dtype."""

import numpy as np

from shiftcolor.groups import ball_size, refuse

from ball_reference import ball_norms


def reference_table(region, s: int) -> np.ndarray:
    """Row j, column i: the index of w_j * x_i for w_j offset j of Ball(1,
    s), or the sentinel len(region) outside it, in the generator table's
    index dtype.

    Row w*x of the slot-major (w, n) table is composed from row w'*x
    through the generator table (whose sentinel column maps the sentinel to
    itself), where w = a*w' for a generator a and |w'| = |w| - 1, taking
    whichever such path stays in the region. That is exact for Z^d and F_k:
    any two points of a ball about the identity are joined by a geodesic
    inside it. The pairs (w', a) come from the offsets' own generator
    table. Every composition is one contiguous take in the index dtype, and
    the table is refused before allocating when its bytes pass physical
    memory."""
    g, n = region.group, len(region)
    refuse(f"the radius-{s} neighbour table of the {n}-point region of {g.name}",
           n * ball_size(g, s) * region._step.itemsize)
    offsets, packed = g.ball_arrays(s)
    norms = ball_norms(g, g.decode_ball(packed))
    step = offsets[:, :-1].T
    table = np.full((len(norms), n), n, dtype=region._step.dtype)
    table[0] = np.arange(n)
    pairs = np.nonzero(np.append(norms, -1)[step] > norms[:, None])  # a*w' one layer out
    for j, k, t in zip(pairs[0].tolist(), pairs[1].tolist(), step[pairs].tolist()):
        np.minimum(table[t], region._step[k].take(table[j]), out=table[t])
    return table
