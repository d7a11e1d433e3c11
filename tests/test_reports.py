"""Canonical report encoding and config hashing.

Laws under test:
1. The JSON reducer handles every value type reports contain — fractions,
   the infinite radius, numpy scalars (narrow floats too) and arrays,
   patterns, nested report dataclasses — and refuses anything else loudly.
2. Canonical bytes are deterministic: key order never matters, the text
   ends in exactly one newline, and equal values give equal bytes. They
   are exactly json.dumps(sort_keys=True, indent=2, ensure_ascii=False)
   and a newline on any nested plain JSON, with strings that hold
   brackets, quotes, escapes and non-ASCII text among them; plain values
   pass the reducer unchanged. An integer past the interpreter's
   int-to-string digit limit is written exactly, and the limit is
   restored after the dump. Integer arrays of one and two axes may stand
   in for their lists, and are laid out by one format over their entries,
   never walked by the JSON encoder, to the same bytes; no string can pass
   for one.
3. The config hash changes when any determining input changes (parameters,
   seed, spec file contents) and only then; it is the SHA-256 of the
   description's canonical bytes.
4. Envelopes carry the fixed schema version, the manifest, and a fully
   reduced payload, whose integer arrays of one and two axes are kept
   for the encoder to lay out by one format over their entries.
"""

import json
import sys
from hashlib import sha256
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shiftcolor.groups import FreeAbelian
from shiftcolor.ideals import ProperColoring
from shiftcolor.oracles import infty_check
from shiftcolor.patterns import PartialColoring
from shiftcolor.radii import INF
from shiftcolor.reports import (
    SCHEMA_VERSION,
    TOOL_VERSION,
    build_manifest,
    canonical_json_bytes,
    config_hash,
    envelope,
    json_bytes,
    to_jsonable,
)

Z1 = FreeAbelian(1)

# strings rich in JSON's own characters and escapes: brackets, commas,
# colons, quotes, backslashes, control characters, non-ASCII
_TEXT = st.text(st.one_of(st.sampled_from('[]{},:"\\ \n\t\x00\x1fé\u2028😀'),
                          st.characters(blacklist_categories=("Cs",))), max_size=8)
_PLAIN = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True) | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)
# integer arrays of one and two axes, empty ones and shape (n, 0) among
# them, with int64's and uint64's extremes
_INT64 = st.sampled_from([-(2**63), 2**63 - 1, -1, 0, 9, -10]) | st.integers(-(2**63), 2**63 - 1)
_ARRAYS = st.one_of(
    st.lists(_INT64, max_size=5).map(lambda v: np.array(v, dtype=np.int64)),
    st.integers(0, 4).flatmap(lambda k: st.lists(st.lists(_INT64, min_size=k, max_size=k), max_size=4).map(
        lambda rows, k=k: np.array(rows, dtype=np.int64).reshape(len(rows), k))),
    st.lists(st.sampled_from([0, 7, 2**64 - 1]), max_size=3).map(lambda v: np.array(v, dtype=np.uint64)),
    st.lists(st.integers(0, 2**16 - 1), max_size=3).map(lambda v: np.array(v, dtype=np.uint16)),
)
_WITH_ARRAYS = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT | _ARRAYS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)
_SHARED = np.array([[2**63 - 1, -(2**63)], [0, 5]])


class TestToJsonable:
    def test_passthrough_scalars(self):
        assert to_jsonable(None) is None
        assert to_jsonable(True) is True
        assert to_jsonable(7) == 7
        assert to_jsonable(0.5) == 0.5
        assert to_jsonable("x") == "x"

    def test_fraction_renders_as_ratio(self):
        assert to_jsonable(Fraction(1, 3)) == "1/3"
        assert to_jsonable(Fraction(2, 4)) == "1/2"

    def test_infinite_radius(self):
        assert to_jsonable(INF) == "inf"

    def test_numpy_scalars_and_arrays(self):
        assert to_jsonable(np.int64(3)) == 3
        assert to_jsonable(np.float64(0.25)) == 0.25
        # float64 is a float; narrower numpy floats are converted
        assert type(to_jsonable(np.float32(0.5))) is float and to_jsonable(np.float32(0.5)) == 0.5
        assert canonical_json_bytes({"x": np.float16(0.25)}) == b'{\n  "x": 0.25\n}\n'
        assert to_jsonable(np.bool_(True)) is True
        assert to_jsonable(np.array([1, 2, 3])) == [1, 2, 3]

    def test_plain_arrays_list_as_their_tolist(self):
        for array in (np.array([[3, -2], [0, 7]]), np.array([True, False]), np.array([0.5, -1.0]),
                      np.array([2**64 - 1], dtype=np.uint64)):
            out = to_jsonable(array)
            assert out == array.tolist()
            assert json.dumps(out) == json.dumps([to_jsonable(v) for v in array.tolist()])
        assert to_jsonable(np.array([Fraction(1, 3), INF], dtype=object)) == ["1/3", "inf"]

    def test_pattern_uses_its_json_form(self):
        phi = PartialColoring(Z1, {0: 1, -2: 0})
        assert to_jsonable(phi) == {"group": "Z^1", "entries": [[-2, 0], [0, 1]]}

    def test_nested_report_dataclass(self):
        report = infty_check(Z1, (1,), 0)
        out = to_jsonable({"inner": report})
        assert out["inner"]["outcome"] == "refuted"
        assert isinstance(out["inner"]["nodes"], int)

    def test_sets_are_sorted(self):
        assert to_jsonable({3, 1, 2}) == [1, 2, 3]

    def test_dict_keys_become_strings(self):
        assert to_jsonable({1: "a"}) == {"1": "a"}

    def test_unknown_type_is_loud(self):
        with pytest.raises(TypeError):
            to_jsonable(object())


class TestCanonicalBytes:
    def test_key_order_is_irrelevant(self):
        a = canonical_json_bytes({"b": 1, "a": 2})
        b = canonical_json_bytes({"a": 2, "b": 1})
        assert a == b

    def test_single_trailing_newline(self):
        raw = canonical_json_bytes({"x": 1})
        assert raw.endswith(b"\n") and not raw.endswith(b"\n\n")

    def test_stable_across_calls(self):
        obj = {"p": Fraction(1, 2), "r": INF, "n": np.int64(4)}
        assert canonical_json_bytes(obj) == canonical_json_bytes(obj)

    def test_unicode_is_not_escaped(self):
        assert "é".encode("utf-8") in canonical_json_bytes({"s": "é"})

    @settings(max_examples=150, deadline=None)
    @given(value=_PLAIN | _WITH_ARRAYS)
    @example(value={"a": _SHARED, "b": [_SHARED, {"c": _SHARED[0]}], "d": [[np.zeros((3, 0), dtype=np.int64)]]})
    @example(value=np.array([[1, -2], [30, 4]]))
    def test_equals_indented_python_encoder(self, value):
        """Also with integer arrays of one and two axes in place of their
        lists, nested and repeated: each is laid out by one format."""
        expected = json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False, default=np.ndarray.tolist)
        assert json_bytes(value) == (expected + "\n").encode("utf-8")

    def test_no_string_stands_for_an_array(self):
        """An array's place in the dump is a lone surrogate, which a string
        can hold only to be refused as UTF-8 can hold none, with or without
        arrays beside it."""
        for text in ("\udfff", 'a"\udfff', "\udfff0"):
            for value in ({"s": text}, {"s": text, "a": np.array([1])}, [np.array([2]), text]):
                with pytest.raises(UnicodeEncodeError):
                    json_bytes(value)

    def test_only_integer_arrays_of_one_or_two_axes_are_laid_out(self):
        for array in (np.array([0.5]), np.array([True]), np.zeros((1, 1, 1), dtype=np.int64), np.int64(3)):
            with pytest.raises(TypeError):
                json_bytes({"a": array})
            assert to_jsonable(array, arrays=True) == to_jsonable(array)
        kept = np.array([[1, 2]])
        assert to_jsonable({"a": [kept]}, arrays=True)["a"][0] is kept
        assert to_jsonable({"a": [kept]}) == {"a": [[[1, 2]]]}

    def test_integers_past_the_digit_limit_are_written_exactly(self):
        limit = sys.get_int_max_str_digits()
        big = 12**8191  # 8,840 digits, past the default limit of 4,300
        raw = json_bytes({"n": big, "m": [-big]})
        assert sys.get_int_max_str_digits() == limit
        assert raw.count(b"\n") == 6 and len(raw) > 2 * 8840
        sys.set_int_max_str_digits(0)
        try:
            assert json.loads(raw) == {"n": big, "m": [-big]}
        finally:
            sys.set_int_max_str_digits(limit)

    def test_digit_limit_is_restored_when_the_dump_fails(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(TypeError):
            json_bytes({"n": object()})
        assert sys.get_int_max_str_digits() == limit

    def test_search_space_past_the_digit_limit(self):
        report = infty_check(Z1, tuple(2**k - 1 for k in range(1, 13)), 11, node_budget=0)
        assert report.search_space == 12**8191
        assert b"search_space" in canonical_json_bytes(report)

    @settings(max_examples=40, deadline=None)
    @given(value=_PLAIN)
    def test_plain_values_pass_the_reducer(self, value):
        assert json.dumps(to_jsonable(value), sort_keys=True) == json.dumps(value, sort_keys=True)


class TestConfigHash:
    BASE = {"command": "check", "params": {"k": 3}, "seed": 0, "spec_contents": ["{}"]}

    def test_param_change_changes_hash(self):
        other = dict(self.BASE, params={"k": 4})
        assert config_hash(self.BASE) != config_hash(other)

    def test_seed_change_changes_hash(self):
        other = dict(self.BASE, seed=1)
        assert config_hash(self.BASE) != config_hash(other)

    def test_spec_contents_change_changes_hash(self):
        other = dict(self.BASE, spec_contents=['{"kind": "x"}'])
        assert config_hash(self.BASE) != config_hash(other)

    def test_key_order_does_not_change_hash(self):
        reordered = {k: self.BASE[k] for k in reversed(list(self.BASE))}
        assert config_hash(self.BASE) == config_hash(reordered)

    @settings(max_examples=60, deadline=None)
    @given(value=_PLAIN)
    def test_hashes_the_canonical_bytes(self, value):
        description = dict(self.BASE, params={"value": value, "p": Fraction(1, 3), "r": INF})
        assert config_hash(description) == sha256(canonical_json_bytes(description)).hexdigest()


class TestManifestAndEnvelope:
    def test_manifest_shape(self):
        m = build_manifest(
            "simulate",
            {"window": 10},
            seed=3,
            budget=100,
            spec_paths=["/tmp/x.json"],
            spec_contents=["{}"],
            output_path=None,
        )
        assert m["command"] == "simulate"
        assert m["seed"] == 3
        assert m["budgets"] == {"budget": 100}
        assert m["tool_version"] == TOOL_VERSION
        assert len(m["config_hash"]) == 64

    def test_manifest_hash_reflects_contents_not_path(self):
        a = build_manifest("check", {}, spec_paths=["/a.json"], spec_contents=["{}"])
        b = build_manifest("check", {}, spec_paths=["/b.json"], spec_contents=["{}"])
        c = build_manifest("check", {}, spec_paths=["/a.json"], spec_contents=["{-}"])
        assert a["config_hash"] == b["config_hash"]
        assert a["config_hash"] != c["config_hash"]

    def test_envelope_fields(self):
        m = build_manifest("ball", {"r": 2})
        env = envelope(m, {"elements": [0, 1], "p": Fraction(1, 2)})
        assert env["schema_version"] == SCHEMA_VERSION
        assert env["manifest"] is m
        assert env["payload"] == {"elements": [0, 1], "p": "1/2"}

    def test_proper_coloring_spec_roundtrips_through_reducer(self):
        pc = ProperColoring(Z1, 3)
        assert to_jsonable(pc) == {"kind": "ProperColoring", "group": "Z^1", "k": 3}
