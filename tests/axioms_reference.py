"""The per-pattern axioms audit, kept as the tests' independent reference
for ``ideal_axioms_check``, which grows a block of samples and judges all of
the block's restrictions and shifts over packed arrays; and the block judge
by slot-distance matrices and window judges that the pair-by-pair judge
replaced, kept as the reference for its verdicts."""

import random
from itertools import combinations, compress

import numpy as np

from shiftcolor.ideals import NO_COLOR, AxiomsReport, grow_random_member
from shiftcolor.patterns import shift

from ball_reference import bfs_ball


def axioms_check_per_pattern(P, sample_budget, seed, radius=6, shift_radius=5, max_size=5):
    """Draw the samples and subsets ``ideal_axioms_check`` draws, build every
    restriction and every shift (``patterns.shift``, through g.mul) as a
    pattern, and ask ``contains`` of each."""
    rng = random.Random(seed)
    g = P.group
    shifts = bfs_ball(g, g.identity(), shift_radius)
    report = AxiomsReport()
    for _ in range(sample_budget):
        phi = grow_random_member(P, rng, rng.randint(0, max_size), radius)
        report.samples += 1
        dom = list(phi.domain())
        if len(dom) <= 8:
            subsets = [list(sub) for k in range(len(dom) + 1) for sub in combinations(dom, k)]
        else:
            subsets = [rng.sample(dom, rng.randint(0, len(dom))) for _ in range(40)]
        for sub in subsets:
            if not P.contains(phi.restrict(sub)):
                report.restriction_violations.append(
                    {"pattern": phi.to_json(), "subset": [g.element_to_json(e) for e in sub]}
                )
        for gamma in shifts:
            if not P.contains(shift(phi, gamma)):
                report.shift_violations.append(
                    {"pattern": phi.to_json(), "shift": g.element_to_json(gamma)}
                )
    return report


def judge_by_matrices(P, samples, shifts, inverses):
    """The (restricted, shifted) verdicts of a block of samples, in order,
    as ``ideals._judge_packed`` gives them. The block's entries are packed
    in one call and laid out on one width, padded with uncoloured slots;
    only each sample's own slot pairs are measured, in one ``dist_packed``
    call before the shift and one after, into (w, w) matrices per
    restriction and per shift. Two window judges on those per-row matrices,
    both for the codes of the block, judge every restriction and every
    shift."""
    g, n = P.group, len(shifts)
    flat = g.pack([e for _, dom, *_ in samples for e in dom])
    sizes = np.array([len(dom) for _, dom, *_ in samples])
    w = int(sizes.max())
    codes = np.full((len(samples), w), NO_COLOR, dtype=np.int64)
    coded = [P.color_code(c) for phi, *_ in samples for c in phi.entries.values()]
    codes[np.arange(w) < sizes[:, None]] = coded
    a, b = np.triu_indices(w, 1)
    rows, pairs = np.nonzero(b < sizes[:, None])  # each sample's slot pairs, in order
    a, b = a[pairs], b[pairs]
    x, y = (np.cumsum(sizes) - sizes)[rows] + (a, b)  # their entries in flat

    def distances(shape, dist):
        D = np.zeros(shape, dtype=np.int64)
        D[rows, ..., a, b] = D[rows, ..., b, a] = dist
        return D

    ends = np.cumsum([len(keep) for _, _, keep, *_ in samples])
    owner = np.repeat(np.arange(len(samples)), np.diff(ends, prepend=0))  # of each restriction
    keep = np.zeros((ends[-1], w), dtype=bool)
    for (_, dom, mask, *_), end in zip(samples, ends):
        keep[end - len(mask) : end, : len(dom)] = mask

    def restriction(i):
        phi, dom, mask, *_ = samples[owner[i]]
        return phi.restrict(compress(dom, mask[i - ends[owner[i]] + len(mask)]))

    used = sorted({NO_COLOR, *coded})
    D = distances((len(samples), w, w), g.dist_packed(flat[x], flat[y]))[owner]
    restricted = P.window_judge(D, used)(np.where(keep, codes[owner], NO_COLOR), restriction)
    moved = g.mul_packed(flat[:, None], inverses[None, :])  # [x, i] = x * gamma_i^-1
    D = distances((len(samples), n, w, w), g.dist_packed(moved[x], moved[y]))
    shifted = P.window_judge(D.reshape(len(samples) * n, w, w), used)(
        np.repeat(codes, n, axis=0), lambda i: shift(samples[i // n][0], shifts[i % n])
    )
    return zip(np.split(restricted, ends[:-1]), shifted.reshape(len(samples), n))
