"""The randomized window coloring, its validator, equivariance, the sparse
multi-scale coloring, and pattern extraction.

Laws under test:
1. Config validation: the margin absorbs twice the largest window radius;
   densities are proper fractions; palette-less ideals need a schedule.
2. Step rule fixtures: a single forced support point gets the scheduled
   color; two adjacent forced points at reach 0 both get colored — an
   invalid outcome that the validator must catch (this is why the warm-up
   exists).
3. Hard invariants on live runs: colorings grow monotonically, same-step
   points are farther apart than twice the step's reach, every local window
   of the final coloring is a member.
4. Equivariance: runs driven by a translated field agree with the original
   on the safe interior, exactly.
5. Sparse runs: the greedy colouring equals the all-pairs greedy, the
   frozen greedy table on the line, hard separation for the final colors,
   the complete-graph shortcut, coverage reporting.
6. Extraction: recurring patterns are found, normalized to the identity.
7. The array-built region agrees with Group.ball, group.norm, the scalar
   element code, an index-plus-mul generator table and g.dist; its
   neighbour table, the offset windows and the validator agree with brute
   force over g.dist; a region refuses colliding element codes.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftcolor import simulate
from shiftcolor.groups import FreeAbelian, FreeGroup
from shiftcolor.ideals import DistanceConstrained, NotUniversal, ProperColoring
from shiftcolor.patterns import PartialColoring
from shiftcolor.radii import INF, Infinity, radius_floor
from shiftcolor.rng import element_code
from shiftcolor.simulate import (
    SimulationConfig,
    SimulationTrace,
    ValidationReport,
    _greedy_distance_coloring,
    _region_of,
    _window,
    equivariance_check,
    extract_patterns,
    run,
    sparse_run,
    trace_validate,
)

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
F2 = FreeGroup(2)
PC3 = ProperColoring(Z1, 3)


class TestConfigValidation:
    def test_margin_must_cover_reach(self):
        cfg = SimulationConfig(ideal=PC3, window_radius=5, margin=1, steps=1)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_density_bounds(self):
        for p in (Fraction(0), Fraction(1), Fraction(3, 2)):
            cfg = SimulationConfig(ideal=PC3, window_radius=5, margin=2, steps=1, p=p)
            with pytest.raises(ValueError):
                cfg.validate()

    def test_infinite_radius_color_rejected(self):
        from shiftcolor.ideals import DistanceConstrained
        from shiftcolor.radii import INF

        dc = DistanceConstrained(Z1, (1, 3), (1, INF))
        cfg = SimulationConfig(ideal=dc, window_radius=5, margin=10, steps=1)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_good_config_passes(self):
        SimulationConfig(ideal=PC3, window_radius=5, margin=2, steps=3).validate()


class TestStepRule:
    def test_forced_single_point(self):
        cfg = SimulationConfig(
            ideal=PC3, window_radius=5, margin=2, steps=1, seed=0, forced_supports={0: [0]}
        )
        trace = run(cfg)
        assert trace.assigned_sets == [(0, (0,))]

    def test_forced_adjacent_pair_slips_through_at_reach_zero(self):
        """At reach 0 two adjacent support points are both 'isolated', and
        each local window check sees only itself: the step accepts both with
        the same color. The validator must flag the resulting pattern."""
        cfg = SimulationConfig(
            ideal=PC3, window_radius=5, margin=2, steps=1, seed=0, forced_supports={0: [0, 1]}
        )
        trace = run(cfg)
        assert trace.assigned_sets == [(0, (0, 1))]
        report = trace_validate(trace, PC3)
        assert not report.ok
        assert {f["element"] for f in report.failures} == {0, 1}

    def test_forced_duplicate_point_rejected(self):
        """A repeated forced point would be reported twice in the step's
        assigned set while colouring only one point."""
        cfg = SimulationConfig(
            ideal=PC3, window_radius=5, margin=2, steps=1, forced_supports={0: [0, 0]}
        )
        with pytest.raises(ValueError):
            run(cfg)

    def test_forced_point_outside_region_rejected(self):
        cfg = SimulationConfig(
            ideal=PC3, window_radius=2, margin=2, steps=1, forced_supports={0: [99]}
        )
        with pytest.raises(ValueError):
            run(cfg)

    def test_warmup_blocks_early_rounds(self):
        cfg = SimulationConfig(ideal=PC3, window_radius=10, margin=2, steps=3, seed=1)
        trace = run(cfg)
        # reach 0 < max radius 1 during the first round: forced empty
        assert trace.assigned_sets[0][1] == ()
        assert trace.reaches[0] == 0 and trace.reaches[1] == 1

    def test_schedule_cycles_palette(self):
        cfg = SimulationConfig(ideal=PC3, window_radius=8, margin=2, steps=7, seed=0)
        trace = run(cfg)
        assert trace.schedule_used == [0, 1, 2, 0, 1, 2, 0]

    def test_determinism(self):
        cfg = SimulationConfig(ideal=PC3, window_radius=30, margin=2, steps=20, seed=9)
        assert run(cfg).assigned_sets == run(cfg).assigned_sets


class TestHardInvariants:
    def test_live_run_clean(self):
        cfg = SimulationConfig(
            ideal=PC3, window_radius=50, margin=10, steps=60, p=Fraction(1, 2), seed=7
        )
        trace = run(cfg)
        fills = trace.fill_fractions
        assert all(a <= b + 1e-12 for a, b in zip(fills, fills[1:]))
        for (color, elems), reach in zip(trace.assigned_sets, trace.reaches):
            for i, x in enumerate(elems):
                for y in elems[i + 1 :]:
                    assert Z1.dist(x, y) > 2 * reach
        assert trace_validate(trace, PC3).ok
        assert fills[-1] > 0.5

    def test_colorings_chain_is_monotone(self):
        cfg = SimulationConfig(ideal=PC3, window_radius=20, margin=2, steps=15, seed=3)
        trace = run(cfg)
        chain = trace.colorings
        for small, big in zip(chain, chain[1:]):
            for e, c in small.entries.items():
                assert big[e] == c

    def test_final_coloring_in_ideal(self):
        cfg = SimulationConfig(ideal=PC3, window_radius=30, margin=2, steps=30, seed=5)
        trace = run(cfg)
        assert PC3.contains(trace.final_coloring)


class TestNotUniversalRuns:
    def test_z1_random_run(self):
        nu = NotUniversal(Z1, (1, 3), (5, 13))
        cfg = SimulationConfig(
            ideal=nu, window_radius=30, margin=26, steps=40, p=Fraction(1, 54), seed=2
        )
        trace = run(cfg)
        final = trace.final_coloring
        assert len(final) == 8  # frozen for this seed
        assert final.colors_used() == {0, 1}
        assert trace_validate(trace, nu).ok

    def test_f2_forced_fixture(self):
        """Identity gets colored; aa and bb are then refused: they are
        within distance 2*d_0 of the identity with the same color."""
        nu = NotUniversal(F2, (1,), (3,))
        cfg = SimulationConfig(
            ideal=nu,
            window_radius=2,
            margin=6,
            steps=4,
            seed=0,
            forced_supports={1: [""], 2: ["aa"], 3: ["bb"]},
        )
        trace = run(cfg)
        assert trace.assigned_sets == [(0, ()), (0, ("",)), (0, ()), (0, ())]
        assert trace_validate(trace, nu).ok


# (group, largest region radius, largest neighbourhood radius) kept small
# enough for brute force
KERNEL_CASES = [
    (Z1, 8, 4),
    (Z2, 5, 3),
    (FreeAbelian(3), 3, 2),
    (F2, 3, 3),
    (FreeGroup(3), 2, 2),
]


# (group, largest radius) for the array-built Region against its references;
# Z^28 has rows of 224 bytes, the widest table keys
REGION_CASES = [
    (Z1, 12),
    (Z2, 6),
    (FreeAbelian(3), 4),
    (FreeAbelian(4), 3),
    (FreeAbelian(28), 2),
    (FreeGroup(1), 12),
    (F2, 4),
    (FreeGroup(3), 3),
]


class TestRegionKernel:
    """The array-built region, its neighbour table and the offset windows
    against their references."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_rows_and_windows_match_brute_force(self, data):
        g, max_T, max_s = data.draw(st.sampled_from(KERNEL_CASES))
        T = data.draw(st.integers(0, max_T))
        s = data.draw(st.integers(0, max_s))
        region = _region_of(g, T)
        points = region.elements
        i = data.draw(st.integers(0, len(points) - 1))
        center = points[i]
        cur = {e: k % 3 for k, e in enumerate(points) if data.draw(st.booleans())}
        table = region.neighbors(s)
        offsets = g.ball(g.identity(), s)
        assert table[i].tolist() == [region.index.get(g.mul(w, center), len(points)) for w in offsets]
        for r in range(s + 1):
            near = {k for k, x in enumerate(points) if g.dist(center, x) <= r}
            width = len(g.ball(g.identity(), r))
            row = set(table[i, :width].tolist()) - {len(points)}
            assert row == near
            assert _window(g, cur, center, r) == {
                x: c for x, c in cur.items() if g.dist(center, x) <= r
            }

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_array_built_region_matches_references(self, data):
        """Elements, index, norms, codes, generator table and distances
        against Group.ball, group.norm, the scalar element_code, an index
        plus mul, and g.dist."""
        g, max_r = data.draw(st.sampled_from(REGION_CASES))
        r = data.draw(st.integers(-1, max_r))
        region = simulate.Region(g, r)
        ball = g.ball(g.identity(), r)
        n = len(ball)
        assert region.elements == ball
        assert region.index == {e: i for i, e in enumerate(ball)}
        assert region.norms.tolist() == [g.norm(e) for e in ball]
        assert region.codes.tolist() == [element_code(g, e) for e in ball]
        gens = g.generators()
        table = [[region.index.get(g.mul(a, x), n) for a in gens] for x in ball]
        assert region._step.tolist() == table + [[n] * len(gens)]
        if n:
            i = data.draw(st.integers(0, n - 1))
            assert region.distances(i).tolist() == [g.dist(x, ball[i]) for x in ball[:i]]

    def test_colliding_codes_refused(self, monkeypatch):
        monkeypatch.setattr(simulate, "element_codes", lambda g, pts: np.zeros(len(pts), dtype=np.uint64))
        with pytest.raises(RuntimeError, match="element codes collide"):
            simulate.Region(Z1, 2)


def brute_force_validate(trace, ideal):
    """The quadratic validator: after each step, every colored point within
    the largest finite radius of a new point has its window rebuilt by
    scanning the whole coloring with g.dist."""
    r = ideal.locality_radius
    g = trace.group
    T = trace.config.window_radius + trace.config.margin
    report = ValidationReport()
    cur = {}
    finite = [r(c) for c, _ in trace.assigned_sets if not isinstance(r(c), Infinity)]
    max_reach = radius_floor(max(finite)) if finite else 0
    for step, (color, elems) in enumerate(trace.assigned_sets, start=1):
        for e in elems:
            cur[e] = color
        affected = {e for e in cur if any(g.dist(e, a) <= max_reach for a in elems)}
        for gamma in sorted(affected, key=g.sort_key):
            rc = r(cur[gamma])
            if isinstance(rc, Infinity):
                report.skipped_nonlocal += 1
                continue
            if g.dist(g.identity(), gamma) + rc > T:
                continue
            window = PartialColoring(g, {e: c for e, c in cur.items() if g.dist(gamma, e) <= rc})
            report.windows_checked += 1
            if not ideal.contains(window):
                report.failures.append(
                    {"step": step, "element": g.element_to_json(gamma), "window": window.to_json()}
                )
    return report


DC = DistanceConstrained(Z1, (1, 3), (3, 7))
NU = NotUniversal(Z1, (1, 3), (5, 13))


def _hand_trace(ideal, window_radius, margin, assigned_sets):
    config = SimulationConfig(ideal=ideal, window_radius=window_radius, margin=margin, steps=0)
    return SimulationTrace(config, [], [], assigned_sets, [], [], [])


class TestValidatorAgainstBruteForce:
    @pytest.mark.parametrize(
        "config",
        [
            SimulationConfig(PC3, 60, 2, 30, Fraction(1, 2), seed)
            for seed in range(3)
        ]
        + [
            SimulationConfig(ProperColoring(Z2, 5), 8, 2, 30, Fraction(1, 8), seed)
            for seed in range(2)
        ]
        + [SimulationConfig(DC, 80, 12, 40, Fraction(1, 8), seed) for seed in range(2)]
        + [SimulationConfig(NU, 40, 26, 40, Fraction(1, 54), seed) for seed in range(2)]
        + [
            SimulationConfig(PC3, 5, 2, 1, seed=0, forced_supports={0: [0, 1]}),
            SimulationConfig(PC3, 20, 2, 12, Fraction(1, 2), seed=4, warmup=False),
        ],
    )
    def test_runs(self, config):
        trace = run(config)
        fast = trace_validate(trace, config.ideal)
        slow = brute_force_validate(trace, config.ideal)
        assert fast.windows_checked > 0
        assert fast.to_jsonable() == slow.to_jsonable()

    def test_hand_traces_with_nonlocal_colors_and_failures(self):
        dc_inf = DistanceConstrained(Z1, (1, 3), (3, INF))
        traces = [
            # color 1 has infinite radius: its windows are skipped, not checked
            (dc_inf, _hand_trace(dc_inf, 10, 4, [(0, (0, 4)), (1, (2,)), (0, (1, 8)), (1, (9,))])),
            # same-color neighbours and points near the boundary
            (PC3, _hand_trace(PC3, 6, 1, [(0, (0, 6, 7)), (1, (3,)), (0, (1, -7)), (2, (4, 5))])),
        ]
        for ideal, trace in traces:
            fast = trace_validate(trace, ideal)
            slow = brute_force_validate(trace, ideal)
            assert fast.failures
            assert fast.to_jsonable() == slow.to_jsonable()
        assert trace_validate(traces[0][1], dc_inf).skipped_nonlocal > 0


class TestEquivariance:
    def test_z1(self):
        cfg = SimulationConfig(
            ideal=PC3, window_radius=16, margin=2, steps=6, p=Fraction(1, 2), seed=11
        )
        for gamma in (1, 2, 5):
            report = equivariance_check(cfg, gamma)
            assert report.safe_size > 0
            assert report.ok, report.to_jsonable()

    def test_f2(self):
        pc5 = ProperColoring(F2, 5)
        cfg = SimulationConfig(
            ideal=pc5, window_radius=6, margin=2, steps=4, p=Fraction(1, 2), seed=11
        )
        report = equivariance_check(cfg, "ab")
        assert report.safe_size > 0
        assert report.ok

    def test_rejects_fixture_runs(self):
        cfg = SimulationConfig(
            ideal=PC3, window_radius=8, margin=2, steps=2, forced_supports={0: [0]}
        )
        with pytest.raises(ValueError):
            equivariance_check(cfg, 1)


def all_pairs_greedy(region, d_c):
    """The quadratic greedy colouring: each point, in region order, takes
    the least colour of no earlier point within d_c by g.dist."""
    g, points = region.group, region.elements
    eta = []
    for i, x in enumerate(points):
        used = {eta[j] for j in range(i) if g.dist(points[j], x) <= d_c}
        c = 0
        while c in used:
            c += 1
        eta.append(c)
    return eta


class TestSparse:
    @pytest.mark.parametrize("g, radius", [(Z1, 30), (Z2, 6), (F2, 4), (FreeGroup(3), 3)])
    def test_greedy_matches_all_pairs(self, g, radius):
        region = simulate.Region(g, radius)
        for d_c in range(2 * radius + 2):
            assert _greedy_distance_coloring(region, d_c) == all_pairs_greedy(region, d_c)

    def test_greedy_frozen_table(self):
        # window visited 0, -1, 1, -2, 2, ...: alternating 0/1 at scale 1
        window = _region_of(Z1, 5)
        eta = _greedy_distance_coloring(window, 1)
        assert dict(zip(window.elements, eta)) == {
            0: 0, -1: 1, 1: 1, -2: 0, 2: 0, -3: 1, 3: 1, -4: 0, 4: 0, -5: 1, 5: 1
        }

    def test_complete_graph_shortcut(self):
        window = _region_of(Z1, 3)
        eta = _greedy_distance_coloring(window, 6)
        assert eta == list(range(len(window.elements)))

    def test_separation_hard_invariant(self):
        d = (1, 3, 7, 15)
        for seed in range(5):
            coloring, report = sparse_run(Z1, d, 30, 4, seed=seed)
            assert report.ok
            by_color = {}
            for e, c in coloring.entries.items():
                by_color.setdefault(c, []).append(e)
            for c, pts in by_color.items():
                for i, x in enumerate(pts):
                    for y in pts[i + 1 :]:
                        assert Z1.dist(x, y) > d[c]

    def test_coverage_reported(self):
        _, report = sparse_run(Z1, (1, 3, 7, 15), 30, 4, seed=0)
        assert 0.0 <= report.coverage <= 1.0
        assert report.window_size == 61

    def test_m_validated(self):
        with pytest.raises(ValueError):
            sparse_run(Z1, (1, 3), 10, 3, seed=0)

    def test_deterministic(self):
        a, _ = sparse_run(Z1, (1, 3, 7), 20, 3, seed=4)
        b, _ = sparse_run(Z1, (1, 3, 7), 20, 3, seed=4)
        assert a == b


class TestExtract:
    def test_parity_coloring_has_two_patterns(self):
        omega = PartialColoring(Z1, {i: i % 2 for i in range(-6, 7)})
        pats = extract_patterns(omega, 1, min_occurrences=2)
        assert len(pats) == 2
        assert {frozenset(p.entries.items()) for p in pats} == {
            frozenset({(-1, 0), (0, 1), (1, 0)}),
            frozenset({(-1, 1), (0, 0), (1, 1)}),
        }

    def test_min_occurrences_filter(self):
        omega = PartialColoring(Z1, {0: 0, 1: 1, 2: 0, 3: 1})
        some = extract_patterns(omega, 1, min_occurrences=1)
        none = extract_patterns(omega, 1, min_occurrences=5)
        assert some and not none

    def test_patterns_are_centered(self):
        omega = PartialColoring(Z1, {i: 0 if i < 3 else 1 for i in range(7)})
        for p in extract_patterns(omega, 1, min_occurrences=1):
            assert sorted(p.domain()) == [-1, 0, 1]
