"""The shiftcolor benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: ``window-seeds``,
``window-geometries`` and ``search-checks`` (see ``workloads.py`` for what
each stresses and why); ``--workload all`` runs the three in turn.
Inputs are generated from ``--seed``; the same seed gives the same inputs.

Each run starts one worker process (``worker.py``) that runs the workload's
job list in rounds, as a closed loop with one client. ``--seconds`` fixes
the amount of work: the number of rounds is ``--seconds`` divided by the
workload's nominal round time at the reference speed (see below), at
least three, so every run of one workload does the same work, pools the
same number of job latencies into its percentiles, and a faster program
finishes sooner.

The machine is a share of a busy host. On the 2-core machine the
benchmark was defined on, one round of the same jobs took from 2.9 to
4.8 s within a minute, and unscaled figures of ten runs spread by 15 to
40% of their median, past the bounds. So job times are reported at a
fixed reference speed. Before the first job of a round and after every
job the worker times a speed probe, a fixed pure-Python kernel that calls
nothing of the package. A job's wall and CPU seconds are multiplied by
``PROBE_REFERENCE_S`` over the mean of the probes timed within 0.1 s of
it, the two around it included. A faster program still reads faster by
the same factor; what cancels is the host's momentary speed. A single job
of half a second still varies by about 10%, since the probes see only
instants near it; sums and percentiles over many jobs average that out.
The measured, unscaled figures are printed in the detail block.

With ``--trace 0`` the last line of stdout is the end-to-end result:

- ``setup_s``: worker start to first job started (interpreter, ``import
  shiftcolor``, writing the inputs) at the reference speed, scaled by
  probes timed just before the start and just after; median of five
  separate starts;
- ``batch_s``: time of one round, the whole job list, at the reference
  speed (median over rounds);
- ``cpu_s``: user plus system CPU time of one round at the reference
  speed (median over rounds);
- ``job_s.p50`` and ``job_s.tail``: median and tail per-job latency at
  the reference speed, Harrell-Davis estimates over every job run (see
  ``stats.percentile``); the lines above name the tail percentile and the
  job count;
- ``peak_rss_mb``: ``ru_maxrss`` of the worker.

With ``--trace 1`` the worker runs two untraced rounds, then two rounds
with every module's public functions wrapped in spans, and the last line
holds the per-layer metrics and ``trace.overhead_ratio``.

Every report is checked: exit code, payload invariants, and on the default
seed its sha256 against ``digests.json``. ``failed`` counts job runs that
broke any of these; counts and digests must also repeat exactly between
rounds, and between traced and untraced rounds. ``--record-digests``
rewrites this workload's entry of ``digests.json`` from a run on the
default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from collections import defaultdict

import stats
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")
DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 0
# Seconds per untraced round at the reference speed, measured when the
# benchmark was defined; only used to turn --seconds into a fixed number
# of rounds. On a busy host a round takes up to twice as long.
NOMINAL_ROUND_S = {"window-seeds": 2.85, "window-geometries": 3.8, "search-checks": 4.7}
MIN_ROUNDS = 3
# The speed probe's time at the reference speed job times are scaled to:
# about its lower decile on the 2-core machine the benchmark was defined
# on, so that times read close to that machine's when it is quiet.
PROBE_REFERENCE_S = 0.003
SETUP_SAMPLES = 5
TRACE_ROUNDS = 2
DEADLINE_S = 170.0

WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

LAYER_SPANS = [
    "simulate.trace_validate", "simulate.run", "simulate.equivariance_check",
    "simulate.sparse_run", "simulate.extract_patterns", "groups.ball", "groups.d_sequence",
    "groups.annulus_D", "rng.element_codes", "rng.mask", "ideals.contains",
    "ideals.grow_random_member", "ideals.ideal_axioms_check", "reduction.check_local",
    "reduction.check_join", "reduction.reduced_contains", "reduction.decompose",
    "oracles.infty_check", "oracles.extension_oracle", "reports.canonical_json_bytes",
    "reports.build_manifest", "cli.main",
]


class BenchError(RuntimeError):
    pass


def _git_commit():
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _worker(deadline: float, *args: str) -> dict:
    """Start one worker, wait for it, and return its result."""
    result_path = os.path.join(WORK, "worker-result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ, **WORKER_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--result", result_path, *args]
    probe_s = stats.speed_probe()
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker did not finish in time: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result.update(started=started, start_probe_s=probe_s)
    return result


def _setup_s(result: dict) -> float:
    """Worker start to first job, at the reference speed: scaled by the
    probes timed just before the start and just after set-up ends."""
    probe_s = (result["start_probe_s"] + result["setup_probe_s"]) / 2
    return (result["first_job_at"] - result["started"]) * PROBE_REFERENCE_S / probe_s


def _recorded_digests(workload: str) -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def _check_runs(result: dict, recorded: dict) -> dict:
    """Correctness across every job run: failures, repeat consistency,
    traced against untraced digests, and the recorded digests if given."""
    names = result["jobs"]
    failed_jobs = defaultdict(list)
    attempted = failed = 0
    seen = {}  # job index -> (digest, counts) of its first run
    nondeterministic = set()
    trace_mismatch = set()
    phases = [("untraced", r) for r in result["rounds"]]
    phases += [("traced", r) for r in result.get("traced_rounds", [])]
    for phase, rnd in phases:
        for i, rec in enumerate(rnd["jobs"]):
            attempted += 1
            problems = list(rec["problems"])
            if recorded and rec.get("digest") and recorded.get(names[i]) != rec["digest"]:
                problems.append("report digest differs from the recorded one")
            if problems:
                failed += 1
                failed_jobs[names[i]].extend(sorted(set(problems) - set(failed_jobs[names[i]])))
                continue
            key = (rec.get("digest"), json.dumps(rec.get("counts"), sort_keys=True))
            first = seen.setdefault(i, (phase, key))
            if first[1] != key:
                if first[1][1] != key[1] or phase == first[0]:
                    nondeterministic.add(names[i])
                else:
                    trace_mismatch.add(names[i])
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_jobs": dict(failed_jobs),
        "nondeterministic": sorted(nondeterministic),
        "traced_digest_mismatch": sorted(trace_mismatch),
        "counts": {names[i]: json.loads(key[1]) for i, (_phase, key) in sorted(seen.items())},
        "digests": {names[i]: key[0] for i, (_phase, key) in sorted(seen.items())},
    }


def _at_reference(rnd: dict, key: str) -> list:
    """Each job's ``key`` seconds in one round, at the reference speed."""
    return [rec[key] * PROBE_REFERENCE_S / rec["probe_s"] for rec in rnd["jobs"]]


def _batch_s(rounds: list) -> float:
    return stats.median([sum(_at_reference(r, "seconds")) for r in rounds])


def _end_to_end(result: dict, setups: list) -> tuple:
    rounds = result["rounds"]
    latencies = [t for rnd in rounds for t in _at_reference(rnd, "seconds")]
    tail_q = stats.tail_percentile(len(latencies))
    metrics = {
        "setup_s": (stats.median(setups), "s"),
        "batch_s": (_batch_s(rounds), "s"),
        "cpu_s": (stats.median([sum(_at_reference(r, "cpu_s")) for r in rounds]), "s"),
        "job_s.p50": (stats.percentile(latencies, 50), "s"),
        "job_s.tail": (stats.percentile(latencies, tail_q), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    notes = {
        "job_s.tail_percentile": tail_q,
        "jobs_timed": len(latencies),
        "setup_samples_s": setups,
        "measured_batch_s": stats.median([r["wall_s"] for r in rounds]),
        "measured_cpu_s": stats.median([r["cpu_s"] for r in rounds]),
        "probe_s": stats.median([rec["probe_s"] for r in rounds for rec in r["jobs"]]),
        "probe_reference_s": PROBE_REFERENCE_S,
    }
    return metrics, notes


def _per_layer(result: dict, checks: dict) -> dict:
    tr = result["trace"]
    n = len(result["traced_rounds"])
    calls = {k: v / n for k, v in tr["calls"].items()}
    self_s = {k: v / n for k, v in tr["self_s"].items()}
    extra = {k: v / n for k, v in tr["extra"].items()}
    counters = {k: v / n for k, v in tr["counters"].items()}

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for span in LAYER_SPANS:
        m[f"{span}.self_s"] = (self_s.get(span, 0.0), "s")
    windows = extra.get("simulate.trace_validate.windows_checked", 0)
    contains_calls = calls.get("ideals.contains", 0)
    oracle_self = self_s.get("oracles.infty_check", 0.0) + self_s.get("oracles.extension_oracle", 0.0)
    nodes = sum(c.get("nodes", 0) for c in checks["counts"].values())
    report_bytes = sum(rec.get("bytes", 0) for rnd in result["traced_rounds"] for rec in rnd["jobs"]) / n
    m.update({
        "simulate.trace_validate.windows_checked": (windows, "count"),
        "simulate.trace_validate.us_per_window": (
            ratio(self_s.get("simulate.trace_validate", 0.0) * 1e6, windows), "us"),
        "simulate.run.region_points": (extra.get("simulate.run.region_points", 0), "count"),
        "simulate.run.accept_ratio": (
            ratio(extra.get("simulate.run.assigned", 0), tr["contains_under_run"] / n), "ratio"),
        "simulate.equivariance_check.safe_points": (
            extra.get("simulate.equivariance_check.safe_points", 0), "count"),
        "groups.ball.calls": (calls.get("groups.ball", 0), "count"),
        "groups.ball.points": (extra.get("groups.ball.points", 0), "count"),
        "groups.dist.calls": (counters.get("groups.dist", 0), "count"),
        "groups.mul.calls": (counters.get("groups.mul", 0), "count"),
        "rng.element_codes.codes": (extra.get("rng.element_codes.codes", 0), "count"),
        "rng.mask.calls": (calls.get("rng.mask", 0), "count"),
        "ideals.contains.calls": (contains_calls, "count"),
        "ideals.contains.mean_entries": (
            ratio(extra.get("ideals.contains.entries", 0), contains_calls), "count"),
        "ideals.contains.true_ratio": (
            ratio(extra.get("ideals.contains.true", 0), contains_calls), "ratio"),
        "patterns.PartialColoring.constructed": (
            counters.get("patterns.PartialColoring.constructed", 0), "count"),
        "patterns.window.calls": (counters.get("patterns.window", 0), "count"),
        "patterns.shift.calls": (counters.get("patterns.shift", 0), "count"),
        "reduction.reduced_contains.calls": (calls.get("reduction.reduced_contains", 0), "count"),
        "oracles.nodes": (nodes, "count"),
        "oracles.nodes_per_s": (ratio(nodes, oracle_self), "1/s"),
        "reports.bytes_out": (report_bytes, "bytes"),
        "trace.overhead_ratio": (
            _batch_s(result["traced_rounds"]) / _batch_s(result["rounds"]), "ratio"),
    })
    for span in ("simulate.trace_validate", "simulate.run", "groups.ball", "groups.d_sequence"):
        m[f"{span}.size_exponent"] = (tr["exponents"][span][0], "1")
    return m


def _self_shares(result: dict) -> list:
    """Each layer's share of the traced round time, largest first."""
    tr = result["trace"]
    total = sum(r["wall_s"] for r in result["traced_rounds"])
    shares = [(name, s / total) for name, s in tr["self_s"].items()]
    return sorted(shares, key=lambda kv: -kv[1])


def _record_digests(workload: str, digests: dict) -> None:
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    table[workload] = digests
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_workload(workload: str, seed: int, seconds: int, trace: int, record: bool) -> int:
    """Run one workload and print its detail block, its metrics one per
    line, and last the JSON result line."""
    deadline = time.monotonic() + DEADLINE_S
    rounds = max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))
    common = ["--workload", workload, "--seed", str(seed)]
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_setup_s(_worker(deadline, *common)))
            result = _worker(deadline, *common, "--rounds", str(rounds))
            setups.append(_setup_s(result))
        else:
            result = _worker(
                deadline, *common, "--rounds", str(TRACE_ROUNDS),
                "--trace-rounds", str(TRACE_ROUNDS),
                "--spans", os.path.join(WORK, f"spans-{workload}.tsv"),
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    use_recorded = seed == DEFAULT_SEED and not record
    checks = _check_runs(result, _recorded_digests(workload) if use_recorded else {})
    if record:
        if checks["failed"] or checks["nondeterministic"]:
            print("error: not recording digests from a run with failed jobs", file=sys.stderr)
            return 1
        _record_digests(workload, checks["digests"])
    fail_ratio = checks["failed"] / checks["attempted"]
    detail = {
        "workload": workload,
        "seed": seed,
        "rounds": len(result["rounds"]),
        "jobs_per_round": len(result["jobs"]),
        "fail_ratio": fail_ratio,
        "machine": dict(result["machine"], git_commit=_git_commit()),
        "caches_cleared_per_round": result["rounds"][0]["caches_cleared"],
        **{k: checks[k] for k in ("failed_jobs", "nondeterministic", "traced_digest_mismatch",
                                  "counts")},
    }
    if trace:
        metrics = _per_layer(result, checks)
        detail["traced_rounds"] = len(result["traced_rounds"])
        detail["self_time_share"] = [[k, round(v, 4)] for k, v in _self_shares(result)]
    else:
        metrics, notes = _end_to_end(result, setups)
        detail.update(notes)
    print(json.dumps(detail, indent=1, sort_keys=True))
    print(f"[{workload}] fail_ratio = {fail_ratio!r} ratio")
    for name, (value, unit) in metrics.items():
        print(f"[{workload}] {name} = {value!r} {unit}")
    correct = (checks["failed"] == 0 and not checks["nondeterministic"]
               and not checks["traced_digest_mismatch"])
    print(json.dumps({
        "correct": correct,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "shiftcolor", "__init__.py")):
        print(f"error: no shiftcolor sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        print(f"error: digests are recorded on the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        code = run_workload(workload, args.seed, args.seconds, args.trace, args.record_digests)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
