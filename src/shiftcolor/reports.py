"""Report plumbing shared by the command-line front end and the tests:
the report base class, canonical JSON encoding, config hashing, and the
manifest envelope.

Reports must be byte-identical across reruns with the same inputs, so the
encoder is fully canonical (sorted keys, fixed indentation, trailing
newline) and nothing time- or host-dependent is ever placed in a report.
Timing, when wanted, belongs on stderr. There is one encoder,
``json_bytes``: the standard library's indented dump, with integer arrays
laid out by one %-format over their entries, never by the JSON encoder; the
config hash is taken over its bytes too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from fractions import Fraction
from typing import Any, Dict, Optional

import numpy as np

from .patterns import PartialColoring
from .radii import Infinity

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"


class Report:
    """Base of the report dataclasses. A report's JSON is its fields, plus
    ``ok`` where the class defines it; the values are encoded by
    ``to_jsonable``."""

    def to_jsonable(self) -> Dict[str, Any]:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        if hasattr(type(self), "ok"):
            out["ok"] = self.ok
        return out


_SCALARS = frozenset({str, int, float, bool, type(None)})


def to_jsonable(obj: Any, arrays: bool = False) -> Any:
    """Recursively reduce report objects to plain JSON values. Fractions
    render as "p/q", the infinite radius as "inf"; report dataclasses are
    asked for their own JSON form. Plain scalars, and lists that hold only
    plain scalars, are returned as they are, and bool, integer and float
    arrays as their ``tolist``; with ``arrays``, integer arrays of one or
    two axes are kept as they are, for ``json_bytes`` to lay out."""
    kind = type(obj)
    if kind in _SCALARS:
        return obj
    if kind is list and all(map(_SCALARS.__contains__, map(type, obj))):
        return obj
    if isinstance(obj, (bool, int, str, float)):
        return obj
    if isinstance(obj, Infinity):
        return "inf"
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, PartialColoring):
        return obj.to_json()
    if hasattr(obj, "to_jsonable"):
        return to_jsonable(obj.to_jsonable(), arrays)
    if hasattr(obj, "to_json") and not isinstance(obj, type):
        return to_jsonable(obj.to_json(), arrays)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v, arrays) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [to_jsonable(v, arrays) for v in obj]
        if isinstance(obj, (set, frozenset)):
            items.sort(key=lambda v: json.dumps(v, sort_keys=True))
        return items
    if isinstance(obj, np.ndarray):
        if arrays and _laid_out(obj):
            return obj
        if obj.dtype.kind in "biuf":  # bool, int and float arrays list plain values
            return obj.tolist()
        return [to_jsonable(v) for v in obj.tolist()]
    raise TypeError(f"cannot encode {type(obj).__name__} into a report")


def _laid_out(obj: Any) -> bool:
    """Whether ``json_bytes`` lays obj out by one %-format over its entries,
    not by the JSON encoder: an integer array of one or two axes."""
    return isinstance(obj, np.ndarray) and obj.dtype.kind in "iu" and obj.ndim in (1, 2)


def _array_text(a: np.ndarray, indent: int) -> str:
    """An integer array of one or two axes as ``json.dumps(a.tolist(),
    indent=2)`` writes it on a line indented by ``indent`` spaces: one
    %-format over its entries, by a template that repeats a row's text."""
    if not len(a):
        return "[]"
    pad = "\n" + " " * (indent + 2)
    row = "%d"
    if a.ndim == 2:  # a row of shape (n, 0) reads []
        items = ("," + pad + "  ").join(["%d"] * a.shape[1])
        row = "[" + pad + "  " + items + pad + "]" if items else "[]"
    return ("[" + pad + ("," + pad).join([row] * len(a)) + pad[:-2] + "]") % tuple(a.ravel().tolist())


_HOLE = "\udfff"  # an array's place in json_bytes' dump


def json_bytes(plain: Any) -> bytes:
    """Sorted keys, two-space indent, UTF-8, trailing newline, for a value
    that is already plain JSON (as ``to_jsonable`` and ``envelope`` give):
    the bytes of ``json.dumps(plain, sort_keys=True, indent=2,
    ensure_ascii=False)`` and a newline. An integer is written exactly
    however many digits it has: the interpreter's limit on int-to-string
    digits, where it has one, is lifted for the dump alone.

    An integer array of one or two axes may stand for its list: the dump
    holds a hole in its place, the string of one lone surrogate, which no
    report's string can hold, as UTF-8 cannot encode it; the hole is then
    replaced by the array's lines at the indent of the hole's line: one
    %-format over its entries (``_array_text``), never walked by the encoder."""
    holes = []  # the arrays, in the order of the dump

    def hole(obj):
        if not _laid_out(obj):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        holes.append(obj)
        return _HOLE

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(plain, sort_keys=True, indent=2, ensure_ascii=False, default=hole)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    pieces = text.split(f'"{_HOLE}"')
    if len(pieces) != len(holes) + 1:
        text.encode("utf-8")  # some string of the value holds the surrogate, and this raises
    for i, array in enumerate(holes):
        line = pieces[i][pieces[i].rfind("\n") + 1 :]
        pieces[i] += _array_text(array, len(line) - len(line.lstrip(" ")))
    return "".join([*pieces, "\n"]).encode("utf-8")


def canonical_json_bytes(obj: Any) -> bytes:
    """The one true serialization: sorted keys, two-space indent, UTF-8,
    trailing newline. Byte-identical reports are a hard requirement."""
    return json_bytes(to_jsonable(obj, arrays=True))


def config_hash(description: Dict[str, Any]) -> str:
    """SHA-256 over the canonical encoding of everything that determines the
    run: command name, parameters, seeds, budgets, and the full contents of
    any input spec files (so a changed file changes the hash even at the
    same path)."""
    return hashlib.sha256(canonical_json_bytes(description)).hexdigest()


def build_manifest(
    command: str,
    params: Dict[str, Any],
    seed: Optional[int] = None,
    budget: Optional[int] = None,
    spec_paths: Optional[list] = None,
    spec_contents: Optional[list] = None,
    output_path: Optional[str] = None,
) -> Dict[str, Any]:
    hashed = {
        "command": command,
        "params": to_jsonable(params),
        "seed": seed,
        "budget": budget,
        "spec_contents": spec_contents or [],
    }
    return {
        "command": command,
        "spec_paths": spec_paths or [],
        "seed": seed,
        "budgets": {"budget": budget},
        "output_path": output_path,
        "tool_version": TOOL_VERSION,
        "config_hash": config_hash(hashed),
    }


def envelope(manifest: Dict[str, Any], payload: Any) -> Dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest,
        "payload": to_jsonable(payload, arrays=True),
    }
