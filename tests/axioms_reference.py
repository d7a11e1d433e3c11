"""The per-pattern axioms audit, kept as the tests' independent reference
for ``ideal_axioms_check``, which grows a block of samples and judges all of
the block's restrictions in one batch and all of its shifts in another,
over packed arrays."""

import random
from itertools import combinations

from shiftcolor.ideals import AxiomsReport, grow_random_member
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
