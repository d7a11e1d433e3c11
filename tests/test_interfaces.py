"""The base classes' contracts, and the names the benchmark's tracer wraps.

Laws under test:
1. The docstrings of ``Group``, ``IdealSpec``, ``PairwiseIdeal`` and
   ``JoinFn`` list the methods a subclass defines, one ``- ``name(...)``
   line each, and the base defines none of them. Every shipped subclass
   defines each listed method in a class of its MRO below the base, so a
   missing method fails here and not at a user's first call; a subclass
   that defines none is reported with every name missing.
2. Every (module, attribute path) in ``perfbench/tracer.py``'s ``SPANS``
   and ``COUNTERS`` names an attribute in its owner's own ``__dict__``,
   which is what the tracer reads when it wraps it: deleting ``Group.dist``
   or a kind's ``contains`` binding fails here, not only under
   ``perfbench/run.py --trace 1``.
"""

import importlib
import re
import sys
from pathlib import Path

import pytest

from shiftcolor.groups import FreeAbelian, FreeGroup, Group
from shiftcolor.ideals import (
    ConstantJoin,
    DistanceConstrained,
    IdealSpec,
    JoinFn,
    NotUniversal,
    PairwiseIdeal,
    ProperColoring,
    SupRadiiJoin,
)
from shiftcolor.reduction import ReducedIdeal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PAIRWISE = [ProperColoring, DistanceConstrained, NotUniversal]
SUBCLASSES = {
    Group: [FreeAbelian, FreeGroup],
    IdealSpec: PAIRWISE + [ReducedIdeal],
    PairwiseIdeal: PAIRWISE,
    JoinFn: [ConstantJoin, SupRadiiJoin],
}


def contract(base) -> list:
    """The method names that base's docstring lists for a subclass to define."""
    return re.findall(r"^\s*- ``(\w+)\(", base.__doc__, re.MULTILINE)


def missing(base, cls) -> list:
    """The names of base's contract that no class of cls's MRO below base defines."""
    below = [k for k in cls.__mro__ if k is not base and issubclass(k, base)]
    return [name for name in contract(base) if not any(callable(vars(k).get(name)) for k in below)]


@pytest.mark.parametrize("base", list(SUBCLASSES), ids=lambda b: b.__name__)
def test_base_lists_its_contract_and_defines_none_of_it(base):
    names = contract(base)
    assert names
    assert len(set(names)) == len(names)
    assert [name for name in names if name in vars(base)] == []


@pytest.mark.parametrize(
    "base, cls",
    [(base, cls) for base, classes in SUBCLASSES.items() for cls in classes],
    ids=lambda c: c.__name__,
)
def test_subclass_defines_its_base_contract(base, cls):
    assert missing(base, cls) == []


def test_a_subclass_that_defines_nothing_misses_every_name():
    class Bare(JoinFn):
        pass

    class Partial(Bare):
        def value(self, phi):
            return 0

    assert missing(JoinFn, Bare) == ["value", "to_json"]
    assert missing(JoinFn, Partial) == ["to_json"]


def test_every_traced_name_is_an_own_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    tracer = importlib.import_module("tracer")
    for name in ("tracer", "stats"):  # perfbench's own modules, not the suite's
        if name not in before:
            del sys.modules[name]
    entries = tracer.SPANS + tracer.COUNTERS
    assert entries
    for name, module, path in entries:
        importlib.import_module(module)
        owner, attr = tracer._resolve(module, path)
        assert attr in owner.__dict__, (name, module, path)
