"""Acceptance suite: one test per shipped guarantee, numbered; the verbose
run line of each test is its pass/fail line.

Soft thresholds (interior fill) were calibrated once by pilot runs and are
frozen here; hard invariants (metric laws, refutations, separation, trace
validity, equivariance, byte-identical reports) are asserted exactly.
Criterion 7 names one configuration that cannot exist on real hardware —
the free-group window at radius 50 needs ~10^28 region points — so that
test states the stated-size computation, verifies the resource bound, and
fails honestly with the analysis; the feasible-scale companion test
demonstrates the same construction within memory.
"""

import json
import os
import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from shiftcolor.cli import main
from shiftcolor.groups import FreeAbelian, FreeGroup, annulus_D, d_sequence, parse_group
from shiftcolor.ideals import (
    DistanceConstrained,
    NotUniversal,
    ProperColoring,
    SupRadiiJoin,
    grow_random_member,
    ideal_axioms_check,
)
from shiftcolor.oracles import (
    REFUTED,
    WITNESS,
    extension_oracle,
    infty_check,
    infty_counting_bound,
)
from shiftcolor.patterns import PartialColoring, shift
from shiftcolor.reduction import (
    ReducedIdeal,
    check_join,
    decompose,
    derived_join_from_local,
    project,
    reduced_contains,
    separated,
)
from shiftcolor.simulate import SimulationConfig, equivariance_check, run, sparse_run, trace_validate

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
F2 = FreeGroup(2)


def _walk(group, rng, steps):
    """A random element reached by a word of at most ``steps`` generators."""
    gens = group.generators()
    e = group.identity()
    for _ in range(rng.randrange(steps + 1)):
        e = group.mul(e, gens[rng.randrange(len(gens))])
    return e


def test_criterion_01_metric_soundness():
    started = time.perf_counter()
    rng = random.Random(20260817)
    for group in (Z1, Z2, F2):
        for _ in range(1000):
            x, y, z, g = (_walk(group, rng, 8) for _ in range(4))
            assert group.dist(x, y) == group.dist(y, x)
            assert group.dist(x, z) <= group.dist(x, y) + group.dist(y, z)
            assert group.dist(group.mul(x, g), group.mul(y, g)) == group.dist(x, y)
            assert (group.dist(x, y) == 0) == (x == y)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 01: PASS — 3000 random triples, all metric laws exact ({elapsed:.2f}s)")


def test_criterion_02_packing_scales():
    started = time.perf_counter()
    seq = d_sequence(Z1, 3)
    assert tuple(seq.values) == (1, 3, 7, 15)

    # independent interval-arithmetic oracle: on the line, two disjoint
    # closed radius-d intervals fit inside a radius-D interval iff
    # 2*(2d+1) <= 2D+1, i.e. D >= 2d+1; the least two-point ball has radius 1
    expected = [1]
    while len(expected) < 4:
        expected.append(2 * expected[-1] + 1)
    assert list(seq.values) == expected

    for w in seq.witnesses[1:]:
        ball_a = set(Z1.ball(w.center_a, w.inner_radius))
        ball_b = set(Z1.ball(w.center_b, w.inner_radius))
        enclosing = set(Z1.ball(0, w.enclosing_radius))
        assert not (ball_a & ball_b)
        assert ball_a <= enclosing and ball_b <= enclosing

    assert annulus_D(Z1, 1)[0] == 5
    assert annulus_D(Z1, 3)[0] == 13
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 02: PASS — scales (1,3,7,15) and annulus bounds 5/13 exact ({elapsed:.2f}s)")


def test_criterion_03_separation_refutations():
    started = time.perf_counter()
    for d, c in (((1, 3), 1), ((1, 3, 7), 2)):
        report = infty_check(Z1, d, c)
        counting = infty_counting_bound(d, c)
        assert report.outcome == REFUTED
        assert report.valid_count == 0
        assert counting["refuted"]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 03: PASS — both instances refuted, counting bound agrees ({elapsed:.2f}s)")


def test_criterion_04_extension_vs_membership():
    started = time.perf_counter()
    pc2 = ProperColoring(Z1, 2)
    blocked = PartialColoring(Z1, {0: 0, 3: 0})
    assert pc2.contains(blocked)
    assert extension_oracle(pc2, blocked, 3).outcome == REFUTED

    pc3 = ProperColoring(Z1, 3)
    witnesses = 0
    for seed in range(200):
        phi = grow_random_member(pc3, random.Random(seed), size=5, radius=6)
        report = extension_oracle(pc3, phi, 5)
        assert report.outcome == WITNESS
        for e, c in phi.entries.items():
            assert report.witness[e] == c
        witnesses += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        "criterion 04: PASS — membership/extendability split shown, "
        f"{witnesses}/200 sampled extensions found ({elapsed:.2f}s)"
    )


def test_criterion_05_reduction_soundness_exhaustive():
    started = time.perf_counter()
    base = ProperColoring(Z1, 3)
    R = SupRadiiJoin(lambda c: 1, description=[1, 1, 1])
    reduced = ReducedIdeal(base, R)

    points = Z1.ball(0, 3)
    colors = [(h, c) for h in range(3) for c in range(3)]
    enumerated = 0
    members = 0
    for k in range(4):
        for dom in combinations(points, k):
            for assignment in product(colors, repeat=k):
                enumerated += 1
                phi = PartialColoring(Z1, dict(zip(dom, assignment)))
                if not reduced_contains(reduced, phi):
                    continue
                members += 1
                assert base.contains(project(phi))
                # restriction closure, exhaustive for these sizes
                for kk in range(k):
                    for sub in combinations(dom, kk):
                        assert reduced_contains(reduced, phi.restrict(sub))
                # shift invariance, one step each way
                assert reduced_contains(reduced, shift(phi, 1))
                assert reduced_contains(reduced, shift(phi, -1))
                if phi:
                    dec = decompose(reduced, phi)
                    assert dec.h_bound == max(h for (h, _c) in phi.entries.values())
                    merged = {}
                    for piece in dec.pieces:
                        merged.update(piece.entries)
                    assert merged == dict(phi.entries)
                    projections = [project(piece) for piece in dec.pieces]
                    for psi in projections:
                        assert base.contains(psi)
                        assert R.value(psi) <= dec.h_bound
                    for i in range(len(projections)):
                        for j in range(i + 1, len(projections)):
                            assert separated(projections[i], projections[j], R)
    assert enumerated == 27280
    assert members == 925

    axioms = ideal_axioms_check(reduced, sample_budget=150, seed=0)
    assert axioms.ok
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"criterion 05: PASS — {enumerated} patterns enumerated, {members} members, "
        f"all conclusions hold, zero exceptions ({elapsed:.2f}s)"
    )


def test_criterion_06_local_implies_join():
    started = time.perf_counter()
    for ideal in (
        ProperColoring(Z1, 3),
        NotUniversal(Z1, (1, 3, 7, 15), (5, 13, 29, 61)),
    ):
        R = derived_join_from_local(ideal.locality_radius)
        report = check_join(ideal, R, tuple_size_max=4, samples=500, seed=0)
        assert report.ok, report.to_jsonable()
        assert report.samples == 500
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 06: PASS — 500 separated-union samples per kind, zero violations ({elapsed:.2f}s)")


def _fill_run(ideal, window, margin, seed):
    config = SimulationConfig(
        ideal=ideal,
        window_radius=window,
        margin=margin,
        steps=60,
        p=Fraction(1, 2),
        seed=seed,
    )
    trace = run(config)
    fills = trace.fill_fractions
    assert all(a <= b + 1e-12 for a, b in zip(fills, fills[1:]))
    group = ideal.group
    for (color, elems), reach in zip(trace.assigned_sets, trace.reaches):
        for i, x in enumerate(elems):
            for y in elems[i + 1 :]:
                assert group.dist(x, y) > 2 * reach
    assert trace_validate(trace, ideal).ok
    return fills[-1]


def test_criterion_07_iterative_fill_line():
    started = time.perf_counter()
    fills = [_fill_run(ProperColoring(Z1, 3), 50, 10, seed) for seed in range(20)]
    mean = sum(fills) / len(fills)
    # frozen pilot calibration: seeds 0..19 gave mean 0.7158, minimum 0.6337
    assert mean >= 0.70
    assert min(fills) >= 0.60
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"criterion 07 (line): PASS — 20 seeds valid, mean fill {mean:.4f} >= 0.70 ({elapsed:.2f}s)"
    )


def test_criterion_07_iterative_fill_free_group_stated_size():
    window, margin = 50, 10
    region_size = 1 + 2 * (3 ** (window + margin) - 1)
    bytes_floor = region_size * 8  # one int64 per region point, before any other state
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if bytes_floor > physical:
        print(
            "criterion 07 (free group, stated size): FAIL — the radius-60 "
            f"free-group region holds {region_size:.3e} points, needing at least "
            f"{bytes_floor:.3e} bytes against {physical:.3e} physically present; "
            "no hardware can run this configuration. See the feasible-scale "
            "companion test for the same guarantees within memory."
        )
        pytest.fail(
            f"free-group window radius {window} needs {region_size:.3e} region points "
            f"(>= {bytes_floor:.3e} bytes); physical memory is {physical:.3e} bytes"
        )
    fills = [_fill_run(ProperColoring(F2, 5), window, margin, seed) for seed in range(20)]
    assert sum(fills) / len(fills) >= 0.0002


def test_criterion_07_iterative_fill_free_group_feasible_scale():
    started = time.perf_counter()
    fills = [_fill_run(ProperColoring(F2, 5), 4, 2, seed) for seed in range(20)]
    mean = sum(fills) / len(fills)
    # frozen pilot calibration: isolation under p=1/2 at reach 1 is a
    # ~2^-17 event per point in the free group, so fills are tiny but
    # the calibrated mean over 20 seeds stays above 0.0002
    assert mean >= 0.0002
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"criterion 07 (free group, feasible scale): PASS — 20 seeds valid, "
        f"mean fill {mean:.6f} >= 0.0002 ({elapsed:.2f}s)"
    )


def test_criterion_08_equivariance():
    started = time.perf_counter()
    configs = [
        (ProperColoring(Z1, 3), 16, 6, [1, 2, 5]),
        (ProperColoring(Z2, 3), 8, 4, [(1, 0), (0, 1), (1, 1)]),
        (ProperColoring(F2, 5), 6, 4, ["a", "b", "ab"]),
    ]
    checked = 0
    for ideal, window, steps, shifts in configs:
        for seed in range(10):
            config = SimulationConfig(
                ideal=ideal, window_radius=window, margin=2, steps=steps,
                p=Fraction(1, 2), seed=seed,
            )
            for gamma in shifts:
                report = equivariance_check(config, gamma)
                assert report.safe_size > 0
                assert report.ok, report.to_jsonable()
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 08: PASS — exact agreement in all {checked} shifted reruns ({elapsed:.2f}s)")


def test_criterion_09_sparse_multiscale():
    started = time.perf_counter()
    scales = [1]
    while len(scales) < 48:
        scales.append(2 * scales[-1] + 1)
    assert scales[:6] == [1, 3, 7, 15, 31, 63]
    # cross-check the doubling law against the packing-scale search as far
    # as the witness search stays cheap
    assert list(d_sequence(Z1, 9, budget=1024).values) == scales[:10]

    coverages = []
    for seed in range(10):
        coloring, report = sparse_run(Z1, scales, 200, 48, seed=seed)
        assert report.ok, report.to_jsonable()
        assert report.separation_violations == []
        coverages.append(round(report.coverage, 4))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        "criterion 09: PASS — zero separation violations over 10 seeds; "
        f"coverage per seed (reported only): {coverages} ({elapsed:.2f}s)"
    )


def test_criterion_10_height_family_consistency():
    started = time.perf_counter()
    d = (1, 3, 7, 15, 31)
    from shiftcolor.radii import INF

    spec_a = DistanceConstrained(Z1, d, (1, 2, 4, 8, 16))
    spec_b = DistanceConstrained(Z1, d, (1, 2, 4, 5, INF))
    points = Z1.ball(0, 7)
    agreed = 0
    member_counts = [0, 0]
    for k in range(4):
        for dom in combinations(points, k):
            for assignment in product(range(3), repeat=k):
                phi = PartialColoring(Z1, dict(zip(dom, assignment)))
                in_a = spec_a.contains(phi)
                in_b = spec_b.contains(phi)
                assert in_a == in_b, phi
                agreed += 1
                member_counts[0] += in_a
                member_counts[1] += in_b
    assert agreed == 13276
    assert 0 < member_counts[0] < agreed
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"criterion 10: PASS — {agreed} low-color patterns classified identically "
        f"({member_counts[0]} members each) ({elapsed:.2f}s)"
    )


def test_criterion_11_reproducibility(tmp_path):
    pc3 = tmp_path / "pc3.json"
    pc3.write_text(json.dumps({"kind": "ProperColoring", "group": "Z^1", "k": 3}))
    pc2 = tmp_path / "pc2.json"
    pc2.write_text(json.dumps({"kind": "ProperColoring", "group": "Z^1", "k": 2}))
    nu = tmp_path / "nu.json"
    nu.write_text(
        json.dumps({"kind": "NotUniversal", "group": "Z^1", "d": [1, 3], "D": [5, 13]})
    )
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps({"group": "Z^1", "entries": [[0, 0], [3, 1]]}))
    parity = tmp_path / "parity.json"
    parity.write_text(
        json.dumps({"group": "Z^1", "entries": [[i, i % 2] for i in range(-6, 7)]})
    )

    invocations = [
        ["ball", "Z^1", "0", "3"],
        ["dseq", "Z^1", "3"],
        ["annulus", "Z^1", "3"],
        ["check", str(pc3), "--mode", "ideal-axioms", "--budget", "60"],
        ["check", str(pc3), "--mode", "local", "--budget", "60"],
        ["check", str(nu), "--mode", "join", "--budget", "60"],
        ["reduce", str(pc3), "--budget", "25", "--dump"],
        ["simulate", str(pc3), "--window", "30", "--margin", "2", "--steps", "20",
         "--seed", "3", "--dump"],
        ["sparse", "Z^1", "--d", "1,3,7", "--window", "20", "--m", "3", "--seed", "1", "--dump"],
        ["verify-infty", "Z^1", "--d", "1,3", "--c", "1"],
        ["oracle-extend", str(pc2), str(pattern), "--radius", "3"],
        ["extract", str(parity), "--radius", "1", "--min-occurrences", "2"],
    ]
    for i, argv in enumerate(invocations):
        out = tmp_path / f"report_{i}.json"
        first_code = main([*argv, "--out", str(out)])
        first = out.read_bytes()
        out.unlink()
        second_code = main([*argv, "--out", str(out)])
        second = out.read_bytes()
        assert first_code == second_code
        assert first == second, argv
        assert first.endswith(b"\n")
    print(f"criterion 11: PASS — {len(invocations)} commands byte-identical on rerun")
