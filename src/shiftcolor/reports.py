"""Report plumbing shared by the command-line front end and the tests:
the report base class, canonical JSON encoding, config hashing, and the
manifest envelope.

Reports must be byte-identical across reruns with the same inputs, so the
encoder is fully canonical (sorted keys, fixed indentation, trailing
newline) and nothing time- or host-dependent is ever placed in a report.
Timing, when wanted, belongs on stderr.
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


def to_jsonable(obj: Any) -> Any:
    """Recursively reduce report objects to plain JSON values. Fractions
    render as "p/q", the infinite radius as "inf"; report dataclasses are
    asked for their own JSON form. Plain scalars, and lists that hold only
    plain scalars, are returned as they are, and bool, integer and float
    arrays as their ``tolist``."""
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
        return to_jsonable(obj.to_jsonable())
    if hasattr(obj, "to_json") and not isinstance(obj, type):
        return to_jsonable(obj.to_json())
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [to_jsonable(v) for v in obj]
        if isinstance(obj, (set, frozenset)):
            items.sort(key=lambda v: json.dumps(v, sort_keys=True))
        return items
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf":  # bool, int and float arrays list plain values
            return obj.tolist()
        return [to_jsonable(v) for v in obj.tolist()]
    raise TypeError(f"cannot encode {type(obj).__name__} into a report")


# What json_bytes reads in a byte: 0 nothing, then the kinds below, and
# the step each kind takes in the depth of nesting.
_OPEN, _CLOSE, _COMMA, _COLON, _QUOTE = 1, 2, 3, 4, 5
_KIND = np.zeros(256, dtype=np.int8)
for _byte, _kind in zip(b"[{]},:\"", (_OPEN, _OPEN, _CLOSE, _CLOSE, _COMMA, _COLON, _QUOTE)):
    _KIND[_byte] = _kind
_STEP = np.array([0, 1, -1, 0, 0, 0], dtype=np.int64)


def json_bytes(plain: Any) -> bytes:
    """Sorted keys, two-space indent, UTF-8, trailing newline, for a value
    that is already plain JSON (as ``to_jsonable`` and ``envelope`` give):
    the bytes of ``json.dumps(plain, sort_keys=True, indent=2,
    ensure_ascii=False)`` and a newline.

    CPython encodes an indented dump in pure Python, so the value is encoded
    compactly by its C encoder and laid out here, on the UTF-8 bytes, whose
    multi-byte characters hold no ASCII byte. Outside strings, a newline and
    two spaces per open container follow each '[', '{' and ',', and come
    before each ']' and '}'; a space follows each ':'; empty containers stay
    "[]" and "{}". An integer is written exactly however many digits it
    has: the interpreter's limit on int-to-string digits, where it has one,
    is lifted for the dump alone."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        raw = json.dumps(plain, sort_keys=True, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    # Blank the escapes, pairing backslashes from the left as the decoder
    # does (the dump holds no raw NUL), so the quotes left delimit strings,
    # and blank "[]" and "{}", which are left as they are. Outside a string
    # a '[' is followed by a value or ']', so no "[]" spans a string's end.
    scan = raw.replace(b"\\\\", b"\0\0").replace(b'\\"', b"\0\0")
    scan = scan.replace(b"[]", b"\0\0").replace(b"{}", b"\0\0")
    kinds = _KIND[np.frombuffer(scan, dtype=np.uint8)]
    marks = np.flatnonzero(kinds)
    kind = kinds[marks]
    quote = kind == _QUOTE
    outside = ~(quote | np.logical_xor.accumulate(quote))
    marks, kind = marks[outside], kind[outside]
    colon = kind == _COLON
    depth = np.add.accumulate(_STEP[kind])  # after each mark: a close's is that of its line
    extra = np.where(colon, 1, 1 + 2 * depth)
    # a mark's bytes go just before byte ``at``, which exists: the last byte
    # ends a value, and no mark inserts after it
    at = marks + (kind != _CLOSE)
    n = len(raw)
    shift = np.zeros(n, dtype=np.int64)
    shift[at] = extra
    place = np.add.accumulate(shift)
    place += np.arange(n)
    out = np.full(n + int(extra.sum()), ord(" "), dtype=np.uint8)
    out[place] = np.frombuffer(raw, dtype=np.uint8)
    out[place[at[~colon]] - extra[~colon]] = ord("\n")
    return out.tobytes() + b"\n"


def canonical_json_bytes(obj: Any) -> bytes:
    """The one true serialization: sorted keys, two-space indent, UTF-8,
    trailing newline. Byte-identical reports are a hard requirement."""
    return json_bytes(to_jsonable(obj))


def config_hash(description: Dict[str, Any]) -> str:
    """SHA-256 over the canonical encoding of everything that determines the
    run: command name, parameters, seeds, budgets, and the full contents of
    any input spec files (so a changed file changes the hash even at the
    same path), as the pure-Python encoder dumps them: on a description
    this small it is faster than ``canonical_json_bytes``."""
    text = json.dumps(to_jsonable(description), sort_keys=True, indent=2, ensure_ascii=False)
    return hashlib.sha256((text + "\n").encode("utf-8")).hexdigest()


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
        "payload": to_jsonable(payload),
    }
