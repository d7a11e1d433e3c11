"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import stats  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import Job  # noqa: E402


@pytest.mark.parametrize(
    "group, radius, size",
    [("F_2", 9, 39_365), ("Z^2", 24, 1_201), ("Z^1", 5, 11), ("F_1", 5, 11), ("Z^3", 18, 8_473),
     ("F_3", 6, 23_437), ("Z^2", 0, 1), ("F_2", 0, 1)],
)
def test_ball_size_closed_forms(group, radius, size):
    assert stats.ball_size(group, radius) == size


@pytest.mark.parametrize("group", ["Z^1", "Z^2", "Z^3", "Z^4", "F_1", "F_2", "F_3"])
def test_ball_size_matches_enumeration(group):
    from shiftcolor import parse_group

    g = parse_group(group)
    for r in range(4):
        assert stats.ball_size(group, r) == len(g.ball(g.identity(), r))


def test_ball_size_rejects_unknown_groups():
    with pytest.raises(ValueError):
        stats.ball_size("H_3", 2)


def test_percentile_is_harrell_davis():
    xs = list(range(1, 102))
    assert stats.percentile(xs, 50) == pytest.approx(51.0)
    assert stats.percentile(xs, 90) == pytest.approx(91.0, abs=0.5)
    assert stats.percentile([3.0], 75) == pytest.approx(3.0)
    assert stats.percentile([2.0] * 40, 90) == pytest.approx(2.0)
    # between two equal clusters the median lies halfway, not on either
    assert stats.percentile([1.0] * 50 + [2.0] * 50, 50) == pytest.approx(1.5)
    # moving one sample across the gap moves it a little, not by the gap
    assert 1.4 < stats.percentile([1.0] * 51 + [2.0] * 49, 50) < 1.5


@pytest.mark.parametrize(
    "n, q", [(10, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (117, 90.0),
             (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_leaves_ten_beyond(n, q):
    assert stats.tail_percentile(n) == q
    if q != 50.0:
        xs = list(range(n))
        beyond = sum(1 for x in xs if x > xs[stats._rank(q, n) - 1])
        assert beyond >= stats.MIN_BEYOND_TAIL


def test_self_times_subtract_direct_children_only():
    # root [0,10] > a [1,4] > a1 [2,3]; root > b [5,6]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    assert stats.self_times(starts, ends, parents) == [6.0, 2.0, 1.0, 1.0]


def test_size_exponent_pools_series():
    samples = [("a", n, 3e-6 * n**2) for n in (10, 20, 40)]
    samples += [("b", n, 7e-4 * n**2) for n in (5, 50)]
    samples += [("c", 30, 1.0)]  # one size only: ignored
    slope, used = stats.size_exponent(samples)
    assert slope == pytest.approx(2.0)
    assert used == 2


def test_size_exponent_without_two_sizes():
    assert stats.size_exponent([("a", 10, 1.0), ("a", 10, 2.0)]) == (0.0, 0)
    assert stats.size_exponent([]) == (0.0, 0)


def test_preflight_refuses_oversized_jobs():
    ran = []
    job = Job("huge", lambda: ran.append(1) or (0, b"{}"), lambda c, p: [], lambda p: {},
              ("F_2", 20))
    record = worker._run_job(job, stats)
    assert not ran
    assert record["problems"] and record["problems"][0].startswith("refused")


def test_failing_job_is_counted_not_raised():
    def boom():
        raise RuntimeError("boom")

    record = worker._run_job(Job("boom", boom, lambda c, p: [], lambda p: {}), stats)
    assert record["problems"] == ["exception RuntimeError: boom"]


def test_tracer_wraps_imported_names_and_restores_them(tmp_path):
    from shiftcolor import cli, simulate

    original_run = simulate.run
    spec = tmp_path / "pc3.json"
    spec.write_text('{"kind": "ProperColoring", "group": "Z^1", "k": 3}')
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli.run is simulate.run is not original_run
        code = cli.main(["simulate", str(spec), "--window", "20", "--margin", "2",
                         "--steps", "8", "--out", str(tmp_path / "r.json")])
    finally:
        tr.uninstall()
    assert code == 0
    assert cli.run is simulate.run is original_run
    summary = tr.summary()
    for name in ("cli.main", "simulate.run", "simulate.trace_validate", "groups.ball",
                 "rng.element_codes", "reports.canonical_json_bytes"):
        assert summary["calls"][name] >= 1, name
    names = [tr.names[i] for i in tr.name]
    main_idx = names.index("cli.main")
    run_idx = names.index("simulate.run")
    assert tr.parent[main_idx] == -1
    assert tr.parent[run_idx] == main_idx
    assert summary["counters"]["groups.dist"] > 0
    assert summary["extra"]["simulate.run.region_points"] == 45
    total = tr.end[main_idx] - tr.start[main_idx]
    assert sum(summary["self_s"].values()) == pytest.approx(total)


def _fake_result(traced_digest="d1", second_count=3):
    def rnd(digest, count):
        return {"wall_s": 1.0, "cpu_s": 1.0,
                "jobs": [{"problems": [], "seconds": 0.1, "digest": digest, "counts": {"n": count}}]}

    return {"jobs": ["job"], "rounds": [rnd("d1", 3), rnd("d1", second_count)],
            "traced_rounds": [rnd(traced_digest, 3)]}


def test_repeats_must_agree():
    import run

    clean = run._check_runs(_fake_result(), {})
    assert (clean["attempted"], clean["failed"]) == (3, 0)
    assert not clean["nondeterministic"] and not clean["traced_digest_mismatch"]
    assert run._check_runs(_fake_result(second_count=4), {})["nondeterministic"] == ["job"]
    traced = run._check_runs(_fake_result(traced_digest="d2"), {})
    assert traced["traced_digest_mismatch"] == ["job"]
    recorded = run._check_runs(_fake_result(), {"job": "d0"})
    assert recorded["failed"] == 3
    assert recorded["failed_jobs"] == {"job": ["report digest differs from the recorded one"]}


def test_each_job_carries_the_probes_around_it(monkeypatch):
    probes = iter([1.0, 3.0, 5.0])
    monkeypatch.setattr(stats, "speed_probe", lambda: next(probes))
    monkeypatch.setattr(worker, "PROBE_WINDOW_S", 0.0)
    jobs = [Job(name, lambda: (0, b"{}"), lambda c, p: [], lambda p: {}) for name in "ab"]
    rnd = worker._round(jobs, stats)
    assert [rec["probe_s"] for rec in rnd["jobs"]] == [2.0, 4.0]
    assert rnd["wall_s"] == sum(rec["seconds"] for rec in rnd["jobs"])


def test_probe_means_take_the_probes_near_each_job():
    spans = [(0.0, 1.0), (1.01, 1.02), (1.03, 3.0)]
    probes = [(-0.001, 1.0), (1.005, 2.0), (1.025, 4.0), (3.001, 8.0)]
    assert stats.probe_means(spans, probes, 0.1) == pytest.approx([7 / 3, 3.0, 14 / 3])
    assert stats.probe_means(spans, probes, 0.0) == pytest.approx([1.5, 3.0, 6.0])


def test_job_times_scale_to_the_reference_speed():
    import run

    ref = run.PROBE_REFERENCE_S
    rnd = {"jobs": [{"seconds": 0.2, "cpu_s": 0.1, "probe_s": 2 * ref},
                    {"seconds": 0.3, "cpu_s": 0.3, "probe_s": ref}]}
    assert run._at_reference(rnd, "seconds") == pytest.approx([0.1, 0.3])
    assert run._at_reference(rnd, "cpu_s") == pytest.approx([0.05, 0.3])
    assert run._batch_s([rnd, rnd, {"jobs": rnd["jobs"][:1]}]) == pytest.approx(0.4)
    setup = {"started": 10.0, "first_job_at": 10.3, "start_probe_s": ref, "setup_probe_s": 2 * ref}
    assert run._setup_s(setup) == pytest.approx(0.2)


def test_speed_probe_leaves_the_collector_as_it_found_it():
    import gc

    assert gc.isenabled()
    assert stats.speed_probe() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        stats.speed_probe()
        assert not gc.isenabled()
    finally:
        gc.enable()
