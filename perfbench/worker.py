"""One benchmark worker: a single process that runs one workload as a
closed loop with one client, each job started only when the previous one
has returned.

The workload's job list is run in rounds. Before each round the package's
module-level caches are cleared, so every round starts from the state of
a fresh CLI process and repeats exactly the same jobs; counts and report
digests must then repeat exactly too. With ``--trace-rounds`` the worker
afterwards installs the tracer and runs that many more rounds traced.

Before the first job of a round and after every job the worker times the
speed probe, a fixed pure-Python kernel that calls nothing of the package.
Each job record carries the mean of the probes around it, so the parent
can rescale the job's times to the machine's reference speed.

Run by ``run.py``, never directly; it writes one JSON result file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# Refuse jobs whose largest ball exceeds this many points: about 40 MB of
# neighbour matrix and a few hundred MB of Python objects, well inside a
# shared 8 GB machine. The largest job today is F_2 at radius 9 (39,365).
POINT_BUDGET = 200_000

# A job's speed estimate averages every probe timed within this many
# seconds of it. The host's speed has jitter faster than a job of half a
# second, which the two probes around such a job sample only at their own
# instants; the neighbouring probes even it out.
PROBE_WINDOW_S = 0.1


def _import_package():
    import shiftcolor
    from shiftcolor import cli  # noqa: F401  (part of what every CLI call pays)

    where = os.path.dirname(os.path.abspath(shiftcolor.__file__))
    if where != os.path.join(SRC, "shiftcolor"):
        raise ImportError(f"shiftcolor imported from {where}, not from this checkout")


def reset_caches() -> list:
    """Clear the package's module-level caches, returning their names."""
    cleared = []
    for name, mod in sorted(sys.modules.items()):
        if name != "shiftcolor" and not name.startswith("shiftcolor."):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
                cleared.append(f"{name}.{attr}")
            elif "CACHE" in attr.upper() and isinstance(value, dict):
                value.clear()
                cleared.append(f"{name}.{attr}")
    return cleared


def _run_job(job, stats_mod) -> dict:
    record = {"problems": []}
    if job.ball is not None:
        points = stats_mod.ball_size(*job.ball)
        if points > POINT_BUDGET:
            record["problems"].append(
                f"refused: a radius-{job.ball[1]} ball in {job.ball[0]} holds {points} points, "
                f"over the budget of {POINT_BUDGET}"
            )
            record["seconds"] = record["cpu_s"] = 0.0
            return record
    cpu0, started = time.process_time(), time.perf_counter()
    try:
        code, data = job.run()
    except Exception as exc:  # a failed job is counted, never raised past the loop
        record["seconds"] = time.perf_counter() - started
        record["cpu_s"] = time.process_time() - cpu0
        record["problems"].append(f"exception {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
        return record
    record["seconds"] = time.perf_counter() - started
    record["cpu_s"] = time.process_time() - cpu0
    record["bytes"] = len(data)
    record["digest"] = hashlib.sha256(data).hexdigest()
    try:
        envelope = json.loads(data.decode("utf-8"))
        payload = envelope["payload"] if "manifest" in envelope else envelope
        record["problems"] += job.check(code, payload)
        record["counts"] = job.counts(payload)
    except Exception as exc:
        record["problems"].append(f"unreadable report (exit code {code}): {type(exc).__name__}: {exc}")
    return record


def _round(jobs, stats_mod, tracer=None) -> dict:
    cleared = reset_caches()
    gc.collect()
    records, spans, probes = [], [], []

    def probe():
        at = time.perf_counter()
        probes.append((at, stats_mod.speed_probe()))

    probe()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = i
        started = time.perf_counter()
        records.append(_run_job(job, stats_mod))
        spans.append((started, time.perf_counter()))
        probe()
    for rec, probe_s in zip(records, stats_mod.probe_means(spans, probes, PROBE_WINDOW_S)):
        rec["probe_s"] = probe_s
    return {
        "wall_s": sum(rec["seconds"] for rec in records),
        "cpu_s": sum(rec["cpu_s"] for rec in records),
        "jobs": records,
        "caches_cleared": cleared,
    }


def _meminfo_total_kb():
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _machine() -> dict:
    import numpy

    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kb": _meminfo_total_kb(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "worker_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=0, help="untraced rounds; 0 stops after set-up")
    parser.add_argument("--trace-rounds", type=int, default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args()

    os.chdir(ROOT)
    _import_package()
    import stats
    import workloads

    jobs = workloads.build_jobs(args.workload, args.seed)
    first_job_at = time.monotonic()
    result = {"first_job_at": first_job_at, "setup_probe_s": stats.speed_probe(),
              "jobs": [job.name for job in jobs]}
    if args.rounds:
        result["rounds"] = [_round(jobs, stats) for _ in range(args.rounds)]
        if args.trace_rounds:
            import tracer as tracer_mod

            tr = tracer_mod.Tracer()
            tr.install()
            try:
                result["traced_rounds"] = [_round(jobs, stats, tr) for _ in range(args.trace_rounds)]
            finally:
                tr.uninstall()
            result["trace"] = tr.summary()
            if args.spans:
                tr.write(args.spans)
        result["machine"] = _machine()
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
