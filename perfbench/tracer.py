"""Span and counter recording around the package's public functions,
installed from outside: nothing under ``src/`` is edited.

``Tracer.install`` replaces each named function or method with a wrapper.
A function bound into other modules by ``from ... import`` is replaced
there too, by scanning every loaded ``shiftcolor`` module for the same
object. ``Tracer.uninstall`` puts the originals back.

Spans record name, start, end, parent span and job id into flat arrays,
kept in memory and written out once when the run ends. Leaf functions that
run about a million times per job are counted, not spanned.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import stats

# (span name, module, attribute path) of every spanned function. A dotted
# attribute path names a method on a class.
SPANS: List[Tuple[str, str, str]] = [
    ("simulate.run", "shiftcolor.simulate", "run"),
    ("simulate.trace_validate", "shiftcolor.simulate", "trace_validate"),
    ("simulate.equivariance_check", "shiftcolor.simulate", "equivariance_check"),
    ("simulate.sparse_run", "shiftcolor.simulate", "sparse_run"),
    ("simulate.extract_patterns", "shiftcolor.simulate", "extract_patterns"),
    ("groups.ball", "shiftcolor.groups", "Group.ball"),
    ("groups.d_sequence", "shiftcolor.groups", "d_sequence"),
    ("groups.annulus_D", "shiftcolor.groups", "annulus_D"),
    ("rng.element_codes", "shiftcolor.rng", "element_codes"),
    ("rng.mask", "shiftcolor.rng", "RandomField.mask"),
    ("ideals.contains", "shiftcolor.ideals", "ProperColoring.contains"),
    ("ideals.contains", "shiftcolor.ideals", "DistanceConstrained.contains"),
    ("ideals.contains", "shiftcolor.ideals", "NotUniversal.contains"),
    ("ideals.grow_random_member", "shiftcolor.ideals", "grow_random_member"),
    ("ideals.ideal_axioms_check", "shiftcolor.ideals", "ideal_axioms_check"),
    ("reduction.check_local", "shiftcolor.reduction", "check_local"),
    ("reduction.check_join", "shiftcolor.reduction", "check_join"),
    ("reduction.reduced_contains", "shiftcolor.reduction", "reduced_contains"),
    ("reduction.decompose", "shiftcolor.reduction", "decompose"),
    ("oracles.infty_check", "shiftcolor.oracles", "infty_check"),
    ("oracles.extension_oracle", "shiftcolor.oracles", "extension_oracle"),
    ("reports.canonical_json_bytes", "shiftcolor.reports", "canonical_json_bytes"),
    ("reports.build_manifest", "shiftcolor.reports", "build_manifest"),
    ("cli.main", "shiftcolor.cli", "main"),
]

COUNTERS: List[Tuple[str, str, str]] = [
    ("groups.dist", "shiftcolor.groups", "Group.dist"),
    ("groups.dist", "shiftcolor.groups", "FreeAbelian.dist"),
    ("groups.mul", "shiftcolor.groups", "FreeAbelian.mul"),
    ("groups.mul", "shiftcolor.groups", "FreeGroup.mul"),
    ("patterns.PartialColoring.constructed", "shiftcolor.patterns", "PartialColoring.__init__"),
    ("patterns.window", "shiftcolor.patterns", "PartialColoring.window"),
    ("patterns.shift", "shiftcolor.patterns", "shift"),
]


def _series(config) -> str:
    ideal = config.ideal
    return f"{ideal.group.spec_string()}/{ideal.kind}/p={config.p}"


def _on_run(tr: "Tracer", idx: int, args, result) -> None:
    tr.extra["simulate.run.region_points"] += len(result.region)
    tr.extra["simulate.run.assigned"] += sum(len(e) for _c, e in result.assigned_sets)
    tr.sized.append(("simulate.run", idx, _series(result.config), len(result.region)))


def _on_validate(tr: "Tracer", idx: int, args, result) -> None:
    trace = args[0]
    tr.extra["simulate.trace_validate.windows_checked"] += result.windows_checked
    colored = sum(len(e) for _c, e in trace.assigned_sets)
    tr.sized.append(("simulate.trace_validate", idx, _series(trace.config), colored))


def _on_equivariance(tr: "Tracer", idx: int, args, result) -> None:
    tr.extra["simulate.equivariance_check.safe_points"] += result.safe_size


def _on_ball(tr: "Tracer", idx: int, args, result) -> None:
    tr.extra["groups.ball.points"] += len(result)
    tr.sized.append(("groups.ball", idx, args[0].spec_string(), len(result)))


def _on_dseq(tr: "Tracer", idx: int, args, result) -> None:
    tr.sized.append(("groups.d_sequence", idx, result.group.spec_string(), result.values[-1]))


def _on_codes(tr: "Tracer", idx: int, args, result) -> None:
    tr.extra["rng.element_codes.codes"] += len(result)


def _on_contains(tr: "Tracer", idx: int, args, result) -> None:
    tr.extra["ideals.contains.entries"] += len(args[1])
    tr.extra["ideals.contains.true"] += bool(result)


HOOKS: Dict[str, Callable] = {
    "simulate.run": _on_run,
    "simulate.trace_validate": _on_validate,
    "simulate.equivariance_check": _on_equivariance,
    "groups.ball": _on_ball,
    "groups.d_sequence": _on_dseq,
    "rng.element_codes": _on_codes,
    "ideals.contains": _on_contains,
}


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self._stack: List[int] = []
        self._cells: Dict[str, List[int]] = {}
        self.extra: Dict[str, int] = defaultdict(int)
        # (span name, span index, series, size) for the size exponents
        self.sized: List[Tuple[str, int, str, int]] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _span(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        names, starts, ends, parents, jobs = self.name, self.start, self.end, self.parent, self.job

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, idx, args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        cell = self._cells.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def _replace(self, module: str, path: str, make: Callable[[Callable], Callable]) -> None:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        wrapped = make(original)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        # A module-level function: rebind it wherever it was imported by name.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "shiftcolor" and not mod_name.startswith("shiftcolor."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        for name, module, path in SPANS:
            self._replace(module, path, lambda fn, n=name: self._span(n, fn, HOOKS.get(n)))
        for name, module, path in COUNTERS:
            self._replace(module, path, lambda fn, n=name: self._counter(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Per span name: calls and self seconds; plus the raw per-call
        samples for the size exponents and the number of ``contains`` calls
        made under ``simulate.run``."""
        selfs = stats.self_times(self.start, self.end, self.parent)
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name):
            calls[self.names[nid]] += 1
            self_s[self.names[nid]] += selfs[i]
        run_id = self._ids.get("simulate.run")
        contains_id = self._ids.get("ideals.contains")
        under_run = 0
        if run_id is not None and contains_id is not None:
            for i, nid in enumerate(self.name):
                if nid != contains_id:
                    continue
                p = self.parent[i]
                while p >= 0 and self.name[p] != run_id:
                    p = self.parent[p]
                under_run += p >= 0
        exponents = {}
        for span in ("simulate.run", "simulate.trace_validate", "groups.ball", "groups.d_sequence"):
            samples = [(series, size, selfs[i]) for n, i, series, size in self.sized if n == span]
            exponents[span] = stats.size_exponent(samples)
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counters": {name: cell[0] for name, cell in self._cells.items()},
            "extra": dict(self.extra),
            "contains_under_run": under_run,
            "exponents": exponents,
        }

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line:
        name, start, end, parent index, job id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for i, nid in enumerate(self.name):
                fh.write(
                    f"{self.names[nid]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                    f"{self.parent[i]}\t{self.job[i]}\n"
                )
