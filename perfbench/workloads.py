"""The three workloads, as lists of jobs generated from the workload seed.

A job goes in through the package's public entry points: a subcommand
runs as ``shiftcolor.cli.main(argv)`` in process with ``--out``; the
equivariance check, which has no subcommand, runs as the library function
and is serialised with ``reports.canonical_json_bytes``. The program sees
only the generated inputs: spec files, pattern files and seeds.

Every job carries its own correctness check, the deterministic counts it
reports, and the largest ball it enumerates, which the worker's memory
preflight sizes in closed form before issuing the job.

Why these workloads:

- ``window-seeds``: seed sweeps on a few fixed geometries. Region caches
  are warm after the first job of each geometry, so the time goes into
  the quadratic trace validation, membership on large windows and masks.
- ``window-geometries``: every job uses a geometry not seen before in the
  round, as every CLI invocation does. It pays the ball BFS, the neighbour
  matrix, and the per-element code and distance loops on every job, while
  validation and membership sit nearly idle (fill below 1%).
- ``search-checks``: the non-window subcommands on fixed inputs: packing
  searches, oracles, ideal checks, the reduction, sparse colouring and
  pattern extraction. Membership runs on tiny patterns; the region layer
  is bypassed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import stats

WORKLOADS = ("window-seeds", "window-geometries", "search-checks")

# Relative to the checkout root, which is the worker's working directory;
# manifests record these paths, so they must not vary between runs.
INPUT_DIR = os.path.join("perfbench", "work", "in")
OUT_PATH = os.path.join("perfbench", "work", "out", "report.json")


@dataclass
class Job:
    name: str
    run: Callable[[], Tuple[int, bytes]]
    # (exit code, payload) -> list of broken invariants
    check: Callable[[int, dict], List[str]]
    # payload -> deterministic counts recorded per job
    counts: Callable[[dict], Dict[str, object]]
    # (group, radius) of the largest ball the job enumerates
    ball: Optional[Tuple[str, int]] = None


class _Builder:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}/{seed}")
        self.jobs: List[Job] = []
        os.makedirs(INPUT_DIR, exist_ok=True)
        os.makedirs(os.path.dirname(OUT_PATH), exist_ok=True)

    def write(self, name: str, obj) -> str:
        path = os.path.join(INPUT_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
        return path

    def seed(self) -> int:
        return self.rng.randrange(1 << 31)

    def cli(self, name, argv, check, counts, ball=None) -> None:
        self.jobs.append(Job(name, lambda: _run_cli(argv), check, counts, ball))

    def equivariance(self, name, spec: dict, window, margin, steps, p, seed, gamma) -> None:
        def run():
            from shiftcolor import ideals, reports, simulate

            config = simulate.SimulationConfig(
                ideal=ideals.ideal_from_json(spec),
                window_radius=window,
                margin=margin,
                steps=steps,
                p=Fraction(p),
                seed=seed,
            )
            g = config.ideal.group
            report = simulate.equivariance_check(config, g.element_from_json(gamma))
            return 0, reports.canonical_json_bytes(report)

        def check(code, payload):
            problems = []
            if payload.get("ok") is not True:
                problems.append("equivariance mismatches")
            if not payload.get("safe_size", 0) > 0:
                problems.append("no safe points: the check is vacuous")
            return problems

        self.jobs.append(
            Job(name, run, check, lambda p: {"safe_points": p["safe_size"]},
                (spec["group"], window + margin))
        )


def _run_cli(argv: List[str]) -> Tuple[int, bytes]:
    # imported here: run.py imports this module without the package on its path
    from shiftcolor import cli

    if os.path.exists(OUT_PATH):
        os.remove(OUT_PATH)
    code = cli.main([*argv, "--out", OUT_PATH])
    data = b""
    if os.path.exists(OUT_PATH):
        with open(OUT_PATH, "rb") as fh:
            data = fh.read()
    return code, data


# -- checks -------------------------------------------------------------------


def _exit(expected: int, code: int) -> List[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def _simulate_check(steps: int):
    def check(code, payload):
        problems = _exit(0, code)
        if payload.get("validation", {}).get("ok") is not True:
            problems.append("validation failed")
        if payload.get("trace", {}).get("steps") != steps:
            problems.append("wrong step count")
        return problems

    return check


def _simulate_counts(payload) -> Dict[str, object]:
    trace = payload["trace"]
    return {
        "region_points": trace["region_size"],
        "assigned": sum(trace["assigned_counts"]),
        "windows_checked": payload["validation"]["windows_checked"],
    }


def _ok_check(*keys: str):
    def check(code, payload):
        problems = _exit(0, code)
        node = payload
        for key in keys:
            node = node.get(key, {}) if isinstance(node, dict) else {}
        if node is not True:
            problems.append(f"{'.'.join(keys)} is not true")
        return problems

    return check


def _label(group: str) -> str:
    return group.replace("^", "").replace("_", "").lower()


def _ideal(group: str, k: int) -> dict:
    return {"kind": "ProperColoring", "group": group, "k": k}


# -- window-seeds -------------------------------------------------------------


def _window_seeds(b: _Builder) -> None:
    families = [
        # (label, spec, window, margin, steps, p, seeds per round)
        ("z1-pc3-w250", _ideal("Z^1", 3), 250, 2, 60, "1/2", 4),
        ("z1-pc3-w1000", _ideal("Z^1", 3), 1000, 2, 60, "1/2", 4),
        ("z2-pc5-w12", _ideal("Z^2", 5), 12, 2, 40, "1/8", 4),
        ("z2-pc5-w20", _ideal("Z^2", 5), 20, 2, 40, "1/8", 3),
        ("z1-dc-w1000", {"kind": "DistanceConstrained", "group": "Z^1", "d": [1, 3], "h": [3, 7]},
         1000, 12, 60, "1/8", 3),
    ]
    for label, spec, window, margin, steps, p, n in families:
        path = b.write(label, spec)
        for i in range(n):
            argv = ["simulate", path, "--window", str(window), "--margin", str(margin),
                    "--steps", str(steps), "--p", p, "--seed", str(b.seed())]
            b.cli(f"simulate/{label}/{i}", argv, _simulate_check(steps), _simulate_counts,
                  (spec["group"], window + margin))
    # short-steps equivariance checks on two of the same geometries
    b.equivariance("equivariance/z1-pc3-w250", _ideal("Z^1", 3), 250, 2, 6, "1/2",
                   b.seed(), b.rng.randint(1, 5))
    b.equivariance("equivariance/z2-pc5-w12", _ideal("Z^2", 5), 12, 2, 6, "1/8",
                   b.seed(), b.rng.choice([[1, 0], [0, 1], [-1, 0], [0, -1]]))


# -- window-geometries ----------------------------------------------------------


def _window_geometries(b: _Builder) -> None:
    ladders = [
        ("Z^2", 5, (20, 40, 60, 80), [[1, 0], [0, 1], [-1, 0], [0, -1]]),
        ("Z^3", 7, (8, 12, 16), [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
        ("F_2", 5, (4, 5, 6, 7), ["a", "b", "A", "B"]),
        ("F_3", 7, (3, 4), ["a", "b", "c", "C"]),
    ]
    margin, steps = 2, 8
    for group, k, windows, shifts in ladders:
        label = _label(group)
        spec = _ideal(group, k)
        path = b.write(f"{label}-pc{k}", spec)
        for window in windows:
            argv = ["simulate", path, "--window", str(window), "--margin", str(margin),
                    "--steps", str(steps), "--p", "1/2", "--seed", str(b.seed())]
            b.cli(f"simulate/{label}-w{window}", argv, _simulate_check(steps), _simulate_counts,
                  (group, window + margin))
            # three steps keep the dependency cone (4) inside the smallest region
            b.equivariance(f"equivariance/{label}-w{window}", spec, window, margin, 3, "1/2",
                           b.seed(), b.rng.choice(shifts))
    balls = [("Z^2", 60), ("Z^3", 14), ("F_2", 6), ("F_3", 4)]
    for group, radius in balls:
        label = _label(group)
        if group.startswith("Z"):
            dim = int(group[2:])
            center = json.dumps([b.rng.randint(-50, 50) for _ in range(dim)])
        else:
            rank = int(group[2:])
            letters = "abcdefghijklmnopqrstuvwxyz"[:rank]
            word = ""
            for _ in range(b.rng.randint(1, 6)):
                choices = [c for c in letters + letters.upper()
                           if not word or c != word[-1].swapcase()]
                word += b.rng.choice(choices)
            center = word
        b.cli(f"ball/{label}-r{radius}", ["ball", group, center, str(radius)],
              _ball_check(group, radius), lambda p: {"points": len(p["result"])},
              (group, radius))


def _ball_check(group: str, radius: int):
    def check(code, payload):
        problems = _exit(0, code)
        expected = stats.ball_size(group, radius)
        if len(payload.get("result", [])) != expected:
            problems.append(f"ball has {len(payload.get('result', []))} points, expected {expected}")
        elif payload["center"] not in payload["result"]:
            problems.append("ball does not contain its center")
        return problems

    return check


# -- search-checks --------------------------------------------------------------


def _dseq_check(count: int):
    def check(code, payload):
        problems = _exit(0, code)
        if payload.get("values") != [2 ** (i + 1) - 1 for i in range(count + 1)]:
            problems.append(f"dseq values {payload.get('values')}")
        return problems

    return check


def _search_checks(b: _Builder) -> None:
    # The checks, reductions and sparse runs take fixed seeds: the work of
    # their samplers varies with the seed (F_2 axioms by 20%), which would
    # swamp the run-to-run comparison. The workload seed varies the cheap
    # inputs: the annulus radius, the oracle patterns and the extract input.

    # packing searches: F_2 with count 3 (about 100 s) would swamp every run
    for group, count in [("Z^1", 7), ("Z^1", 8), ("Z^2", 3), ("Z^2", 4), ("Z^3", 3)]:
        b.cli(f"dseq/{group}-{count}", ["dseq", group, str(count), "--budget", "600"],
              _dseq_check(count), lambda p: {"values": p["values"]}, (group, 2**count))
    for group, d in [("Z^1", b.rng.randint(2, 5)), ("Z^2", 2), ("F_2", 2)]:
        def check(code, payload, d=d):
            problems = _exit(0, code)
            if payload.get("D") != 4 * d + 1:
                problems.append(f"annulus D {payload.get('D')}, expected {4 * d + 1}")
            return problems

        b.cli(f"annulus/{group}", ["annulus", group, str(d)], check,
              lambda p: {"D": p["D"]}, (group, 4 * d + 1))
    for group, scales, c in [("Z^1", "1,3", 1), ("Z^1", "1,3,7,15", 3), ("Z^2", "1,3,7", 2)]:
        def check(code, payload, group=group):
            problems = _exit(0, code)
            if payload.get("search", {}).get("outcome") != "refuted":
                problems.append("refutation search did not refute")
            if group == "Z^1" and payload.get("agree") is not True:
                problems.append("search and counting bound disagree")
            return problems

        b.cli(f"verify-infty/{group}-{scales}", ["verify-infty", group, "--d", scales, "--c", str(c)],
              check, lambda p: {"nodes": p["search"]["nodes"]},
              (group, int(scales.split(",")[c])))
    _oracle_jobs(b)
    specs = {
        "pc3-z1": _ideal("Z^1", 3),
        "pc3-z2": _ideal("Z^2", 3),
        "nu-z1": {"kind": "NotUniversal", "group": "Z^1", "d": [1, 3], "D": [3, 7]},
        "pc5-f2": _ideal("F_2", 5),
    }
    samples = 50

    def reduce_check(code, payload):
        problems = _ok_check("ok")(code, payload)
        if payload.get("samples") != samples:
            problems.append("wrong sample count")
        return problems

    for label, spec in specs.items():
        path = b.write(label, spec)
        for mode in ("ideal-axioms", "local", "join"):
            b.cli(f"check/{label}/{mode}",
                  ["check", path, "--mode", mode, "--budget", "60", "--seed", "0"],
                  _ok_check("report", "ok"), lambda p: {"ok": p["report"]["ok"]},
                  (spec["group"], 6))
        b.cli(f"reduce/{label}", ["reduce", path, "--budget", str(samples), "--seed", "0"],
              reduce_check, lambda p: {"samples": p["samples"]}, (spec["group"], 4))
    for group, scales, window, m in [("Z^1", "1,3,7,15", 200, 4), ("Z^1", "1,3,7,15", 400, 4),
                                     ("F_2", "1,3,7", 4, 3), ("F_2", "1,3,7", 5, 3)]:
        b.cli(f"sparse/{group}-w{window}",
              ["sparse", group, "--d", scales, "--window", str(window), "--m", str(m),
               "--seed", "0"],
              _ok_check("report", "ok"),
              lambda p: {"covered": sum(p["report"]["color_counts"].values())},
              (group, window))
    for i in range(2):
        period = b.rng.randint(2, 5)
        offset = b.rng.randint(-20, 20)
        path = b.write(f"periodic-{i}", {
            "group": "Z^1",
            "entries": [[x, (x - offset) % period] for x in range(offset - 60, offset + 61)],
        })

        def check(code, payload, period=period):
            problems = _exit(0, code)
            if payload.get("count") != period:
                problems.append(f"{payload.get('count')} patterns, expected {period}")
            return problems

        b.cli(f"extract/{i}", ["extract", path, "--radius", "2", "--min-occurrences", "2"],
              check, lambda p: {"count": p["count"]})


def _proper_member(rng: random.Random, group: str, k: int, radius: int, size: int) -> dict:
    """A random proper partial colouring (neighbours differ) of at most
    ``size`` points within ``radius`` of the identity. With k > 2d colours
    on Z^d every such pattern extends, so the extension oracle must find a
    witness."""
    dim = 1 if group == "Z^1" else int(group[2:])
    entries: Dict[tuple, int] = {}
    for _ in range(size * 3):
        if len(entries) >= size:
            break
        x = tuple(rng.randint(-radius, radius) for _ in range(dim))
        if sum(abs(c) for c in x) > radius or x in entries:
            continue
        taken = {c for y, c in entries.items() if sum(abs(a - b) for a, b in zip(x, y)) == 1}
        free = [c for c in range(k) if c not in taken]
        entries[x] = rng.choice(free)
    as_json = (lambda x: x[0]) if dim == 1 else list
    return {"group": group, "entries": [[as_json(x), c] for x, c in sorted(entries.items())]}


def _oracle_jobs(b: _Builder) -> None:
    def outcome_check(expected: str):
        def check(code, payload):
            problems = _exit(0, code)
            if payload.get("outcome") != expected:
                problems.append(f"oracle outcome {payload.get('outcome')}, expected {expected}")
            return problems

        return check

    def nodes(payload):
        return {"nodes": payload["nodes"]}

    # the parity dead end: two points of one colour an odd distance apart
    # cannot be joined by a proper 2-colouring of the path between them
    x = b.rng.randint(-10, 10)
    gap = 2 * b.rng.randint(1, 3) + 1
    spec = b.write("pc2-z1", _ideal("Z^1", 2))
    pattern = b.write("dead-end", {"group": "Z^1", "entries": [[x, 0], [x + gap, 0]]})
    b.cli("oracle-extend/dead-end", ["oracle-extend", spec, pattern, "--radius", str(gap)],
          outcome_check("refuted"), nodes, ("Z^1", gap + gap))
    for group, k, members, radius in [("Z^1", 3, 3, 8), ("Z^2", 5, 2, 2)]:
        spec = b.write(f"pc{k}-{group[2:]}-oracle", _ideal(group, k))
        for i in range(members):
            pattern = b.write(f"member-{group[2:]}-{i}", _proper_member(b.rng, group, k, 3, 4))
            b.cli(f"oracle-extend/member-{group}-{i}",
                  ["oracle-extend", spec, pattern, "--radius", str(radius)],
                  outcome_check("witness"), nodes, (group, 3 + radius))


_BUILDERS = {
    "window-seeds": _window_seeds,
    "window-geometries": _window_geometries,
    "search-checks": _search_checks,
}


def build_jobs(workload: str, seed: int) -> List[Job]:
    """Write the workload's inputs under INPUT_DIR and return its jobs."""
    b = _Builder(workload, seed)
    _BUILDERS[workload](b)
    return b.jobs
