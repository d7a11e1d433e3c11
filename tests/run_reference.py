"""The window process one point at a time, kept as the tests' independent
reference for ``simulate.run``: support bits from its field's ``value``,
isolation balls and windows from ``Group.ball``, and membership from
``contains`` on each window as a pattern. It shares no mask, isolation
kernel, neighbour table or window judge with ``run``."""

import numpy as np

from shiftcolor.patterns import PartialColoring
from shiftcolor.radii import radius_floor
from shiftcolor.rng import RandomField
from shiftcolor.simulate import SimulationTrace


class _Points(list):
    """The reference's region: its own points, named as a Region's
    ``elements`` name them."""

    @property
    def elements(self):
        return self


def reference_run(config, field=None) -> SimulationTrace:
    """Step i with colour c_i and reach R_i, s_i = floor(2R_i): unless it is
    a warm-up step (R_i below the largest radius, with warm-up on), each
    support point x of the step (``field.value(i, x)``, the config's field
    by default), in region order, with |x| + s_i <= T, not yet coloured and
    alone among the step's support points in Ball(x, s_i), takes c_i when
    its window Ball(x, s_i), as coloured before the step, with x coloured
    c_i, is a member. The trace lists each step's points in region order,
    the order of ``g.ball``."""
    config.validate()
    ideal = config.ideal
    g = ideal.group
    T = config.window_radius + config.margin
    points = g.ball(g.identity(), T)
    index = {x: i for i, x in enumerate(points)}
    interior = [x for x in points if g.norm(x) <= config.window_radius]
    field = RandomField(g, config.seed, config.p) if field is None else field
    cycle = config.cycle()
    schedule = [cycle[i % len(cycle)] for i in range(config.steps)]
    reaches = [0]
    for c in schedule:
        reaches.append(max(reaches[-1], ideal.locality_radius(c)))
    max_r = max(ideal.locality_radius(c) for c in cycle)

    colour = {}
    steps, fills = [], [0.0]
    for i, (c, R) in enumerate(zip(schedule, reaches)):
        accepted = []
        if not (config.warmup and R < max_r):
            s = radius_floor(2 * R)
            support = {x for x in points if field.value(i, x)}
            for x in points:
                if x not in support or x in colour or g.norm(x) + s > T:
                    continue
                ball = g.ball(x, s)
                if any(y in support for y in ball if y != x):
                    continue
                window = {y: colour[y] for y in ball if y in colour}
                window[x] = c
                if ideal.contains(PartialColoring(g, window)):
                    accepted.append(x)
        colour.update((x, c) for x in accepted)
        steps.append((c, np.array([index[x] for x in accepted], dtype=np.int64)))
        fills.append(sum(x in colour for x in interior) / len(interior))
    return SimulationTrace(config, _Points(points), len(interior), steps, fills, reaches, schedule)
