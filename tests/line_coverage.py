"""The lines of the package that the tier-1 suite never runs.

    python tests/line_coverage.py [MODULE ...] [-- PYTEST_ARGS ...]

Run from anywhere in a checkout. The tier-1 tests (or the pytest
arguments given after ``--``) run in this process
under ``sys.settrace`` (and ``threading.settrace`` for the threads they
start), which records the lines executed in ``src/shiftcolor``; the
modules named (``reports.py``, ``rng.py``, ...; all when none is) are then
listed with their executable lines that never ran, as ranges.

A module's executable lines are the line starts of its compiled code
objects, less each function's and class's first line, which the enclosing
code runs. Code run in a subprocess (the demos, ``python -m`` tests) is
not traced, so a line only such a test reaches is listed as never run.
Tracing makes the suite about three times slower. A test that bounds a
tracemalloc peak (one whose code calls ``tracemalloc.start``) runs with
the tracer off, since the frames and records of the trace are
allocations too and would pass its bound; the report names those tests,
whose lines are not counted. The name of this file keeps it out of
pytest's collection.
"""

import inspect
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shiftcolor"


def executable_lines(path: Path) -> set:
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [module]
    while stack:
        code = stack.pop()
        starts = {line for _, _, line in code.co_lines() if line}  # the module starts at line 0
        if code is not module:
            starts.discard(code.co_firstlineno)
        lines |= starts
        stack.extend(c for c in code.co_consts if isinstance(c, type(module)))
    return lines


def traced_run(pytest_args: list) -> tuple:
    """The pytest exit status, the lines run per file of the package, and
    the tests run untraced."""
    prefix = str(PACKAGE) + os.sep
    hits: dict = {}

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen = hits.setdefault(name, set())

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    import pytest

    untraced = []

    class Untraced:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_call(self, item):
            function = getattr(item, "function", None)
            bounded = function is not None and "tracemalloc.start(" in inspect.getsource(function)
            if bounded:
                untraced.append(item.nodeid)
                sys.settrace(None)
            yield
            if bounded:
                sys.settrace(call)

    sys.path.insert(0, str(ROOT / "src"))  # the package's files by absolute path
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              *(pytest_args or [str(ROOT / "tests")])], plugins=[Untraced()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hits, untraced


def ranges(lines: list) -> str:
    out, start = [], None
    for i, n in enumerate(lines):
        if start is None:
            start = n
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            out.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return ", ".join(out)


def main(argv: list) -> int:
    modules, pytest_args = (argv[: argv.index("--")], argv[argv.index("--") + 1 :]) if "--" in argv else (argv, [])
    status, hits, untraced = traced_run(pytest_args)
    paths = sorted(PACKAGE.glob("*.py")) if not modules else [PACKAGE / m for m in modules]
    total = never_total = 0
    print(f"\n{len(untraced)} tests bound a tracemalloc peak and ran untraced, their lines not counted:")
    for name in untraced:
        print(f"  {name}")
    print(f"pytest exit status {int(status)}; executable lines never run, by module:")
    for path in paths:
        lines = executable_lines(path)
        never = sorted(lines - hits.get(str(path), set()))
        total, never_total = total + len(lines), never_total + len(never)
        print(f"{path.name}: {len(never)} of {len(lines)}" + (f": {ranges(never)}" if never else ""))
    print(f"all: {never_total} of {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
