"""Fresh-process memory totals of a window run, in bytes a region point.

For each case, three builds, each in a fresh Python process: the region
alone; the region, a 60-step PC5 run on it and the run's validation; the
region and an equivariance check of the same run. Each prints the growth
of the process's peak resident set (VmHWM, read from Linux's
/proc/self/status) from just before the region is built, over the
region's size. These are totals from one baseline, not growth above an
earlier build's peak, which moves with that peak and with glibc's mmap
threshold. Before the baseline, a small run on the same group imports
everything, and the memory that imports freed but kept resident is taken
up (as ``test_groups._RATE_SCRIPT`` does), so the build lands on new pages.

Each case is GROUP:T, the region Ball(1, T) of a run with window T - 2
and margin 2 at p = 1/2 and seed 0; the equivariance check shifts by the
first generator. Run from the repository root:

    python tests/bytes_per_point.py F_2:12 Z^2:700
    python tests/bytes_per_point.py --src ../other-checkout/src F_2:12

It prints one JSON line per case. Not a test: pytest does not collect it.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

_CHILD = """
import json, re, sys, time
from shiftcolor.groups import parse_group
from shiftcolor.ideals import ideal_from_json
from shiftcolor.simulate import SimulationConfig, _region_of, equivariance_check, run, trace_validate

def status(field):
    with open("/proc/self/status") as f:
        return int(re.search(field + r":\\s*(\\d+) kB", f.read()).group(1)) * 1024

g, T, what = parse_group(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
ideal = ideal_from_json({"kind": "ProperColoring", "group": g.name, "k": 5})
gamma = g.generators()[0]

def build(T):
    config = SimulationConfig(ideal, T - 2, 2, 60)
    if what == "run":
        ok = trace_validate(run(config), ideal).ok
    elif what == "equivariance":
        ok = equivariance_check(config, gamma).ok
    else:
        ok = True
    return len(_region_of(g, T)), ok

build(3)
_region_of.cache_clear()
held = []
for size in (32, 2048):
    start = status("VmRSS")
    while status("VmRSS") < start + (1 << 18):
        held.extend(b"%d" % i + bytes(size) for i in range(64))
before, start = status("VmHWM"), time.perf_counter()
n, ok = build(T)
print(json.dumps([status("VmHWM") - before, n, ok, time.perf_counter() - start]))
"""

_BUILDS = {"region": "region_B_per_point", "run": "run_validate_B_per_point",
           "equivariance": "equivariance_B_per_point"}


def measure(src: str, spec: str, T: int, what: str):
    """(VmHWM growth, region size, ok, seconds) of one build in a fresh process."""
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _CHILD, spec, str(T), what], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cases", nargs="*", default=["F_2:12", "Z^2:700"], help="GROUP:T, e.g. F_2:12")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="the src directory of the checkout to measure")
    args = parser.parse_args(argv)
    for case in args.cases:
        spec, T = case.rsplit(":", 1)
        row = {"group": spec, "T": int(T)}
        for what, key in _BUILDS.items():
            grown, n, ok, seconds = measure(args.src, spec, int(T), what)
            row.update({"points": n, key: round(grown / n, 1), f"{what}_ok": ok, f"{what}_s": round(seconds, 2)})
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
