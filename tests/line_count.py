"""Lines of the package by kind, per module of ``src/shiftcolor``.

    python tests/line_count.py [--src PATH]

Each line of a module is counted once, as the first of these that holds:
- docstring: it lies within a module, class or function docstring (the
  string's first line through its last);
- blank: it is empty or only whitespace;
- comment: its first non-blank character is ``#``;
- code: any other line.

A trailing ``# ...`` on a code line leaves it a code line. It prints one
row per module and a total row. ``--src`` counts another checkout's
package (the ``src`` directory that holds ``shiftcolor``). Not a test:
the name of this file keeps it out of pytest's collection.
"""

import argparse
import ast
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers the module's, its classes' and its functions'
    docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict:
    """The module's total lines and its lines of each kind."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    lines = text.splitlines()
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        if number in docs:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return {"total": len(lines), **counts}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="the src directory to count (default: this checkout's)")
    package = Path(parser.parse_args().src) / "shiftcolor"
    rows = {path.name: count(path) for path in sorted(package.glob("*.py"))}
    rows["total"] = {key: sum(row[key] for row in rows.values()) for key in ("total", *KINDS)}
    width = max(map(len, rows))
    print(f"{'module':<{width}}  {'total':>6}  " + "  ".join(f"{k:>9}" for k in KINDS))
    for name, row in rows.items():
        print(f"{name:<{width}}  {row['total']:>6}  " + "  ".join(f"{row[k]:>9}" for k in KINDS))


if __name__ == "__main__":
    main()
