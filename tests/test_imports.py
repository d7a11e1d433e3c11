"""Every module of the package uses each name it imports.

Law under test: in each module of ``src/shiftcolor`` but ``__init__.py``
(whose imports are the package's re-exports), every name an ``import`` or
``from ... import`` binds is read somewhere in the module, in code or in a
string annotation; ``from __future__ import annotations`` is exempt.
"""

import ast
from pathlib import Path

import pytest

import shiftcolor

MODULES = sorted(p for p in Path(shiftcolor.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names that source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for quoted in ast.walk(annotation) if annotation else ():
                if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(quoted.value, mode="eval"))
                                if isinstance(n, ast.Name))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "\n".join([
        "from __future__ import annotations",
        "import os, numpy as np",
        "from typing import Optional",
        "from .radii import INF, Infinity",
        "def f(x: 'Optional[Infinity]') -> 'INFO':",
        "    return np.zeros(os.cpu_count())",
    ])
    assert unused_imports(source) == ["INF"]
