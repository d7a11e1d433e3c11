"""The batch command-line front end, driven in process through ``main``.

Laws under test:
1. Every subcommand produces a canonical envelope — schema version,
   manifest, payload — and the exit code contract holds: 0 clean, 1 a
   checked property was found violated, 2 usage or I/O trouble, 3 budget
   exhausted before a conclusion, or a ball that cannot fit in memory,
   its table or its decoded elements, or a run whose steps cannot fit
   beside its region. A negative ``--budget`` on every budgeted
   subcommand, a negative ``--palette-max``, negative ``extract``
   arguments, a plain colour scheduled on a reduced spec, an extension
   search on a reduced spec, a malformed JSON schedule and a ``simulate``
   density outside (0, 1), named by the field's one message, are usage
   errors; a JSON schedule of pair colours runs as
   the library does. ``reduce``'s payload is ``check_reduction``'s report,
   with its sampled patterns only under ``--dump``.
2. Reports are byte-identical across reruns with identical inputs, and the
   config hash tracks spec file *contents*, not just paths: each input
   file is opened once, and the command parses the text it hashed. A ``ball``
   report at the benchmark's sizes is byte for byte the standard
   library's indented dump of its own parsed value.
3. Payload fixtures: sorted ball enumerations (Z^d and F_k, on both sides
   of pack_limit), the frozen packing scales,
   the annulus bound on the line, refutation search agreement with the
   counting bound. Searches past the recursion limit end with their
   verdict's exit code and report, and a search space of more than 4,300
   digits is written exactly.
"""

import builtins
import functools
import io
import json
import sys
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import shiftcolor
from shiftcolor import cli, groups, reduction
from shiftcolor.cli import main
from shiftcolor.groups import FreeAbelian, FreeGroup, ball_size, identity_ball
from shiftcolor.ideals import ideal_from_json
from shiftcolor.patterns import PartialColoring
from shiftcolor.reduction import ReducedIdeal, decompose, join_fn_from_json
from shiftcolor.reports import SCHEMA_VERSION, TOOL_VERSION, to_jsonable
from shiftcolor.simulate import SimulationConfig, run, trace_validate

from ball_reference import bfs_ball


Z1 = FreeAbelian(1)
REDUCED_PC3_SPEC = {"kind": "Reduced", "base": {"kind": "ProperColoring", "group": "Z^1", "k": 3},
                    "R": {"form": "Constant", "value": 1}}


def run_to_file(tmp_path, argv, name="report.json"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    data = out.read_bytes() if out.exists() else b""
    return code, data


def payload_of(data: bytes) -> dict:
    env = json.loads(data.decode("utf-8"))
    assert env["schema_version"] == SCHEMA_VERSION
    assert set(env) == {"schema_version", "manifest", "payload"}
    return env["payload"]


@pytest.fixture
def pc3_spec(tmp_path):
    path = tmp_path / "pc3.json"
    path.write_text(json.dumps({"kind": "ProperColoring", "group": "Z^1", "k": 3}))
    return str(path)


@pytest.fixture
def pc2_join_refuted_spec(tmp_path):
    path = tmp_path / "pc2_r0.json"
    path.write_text(
        json.dumps(
            {
                "ideal": {"kind": "ProperColoring", "group": "Z^1", "k": 2},
                "R": {"form": "Constant", "value": 0},
            }
        )
    )
    return str(path)


class TestEnvelopeAndDeterminism:
    def test_stdout_envelope(self, capsysbinary):
        code = main(["ball", "Z^1", "0", "2"])
        assert code == 0
        payload = payload_of(capsysbinary.readouterr().out)
        assert payload["result"] == [-2, -1, 0, 1, 2]

    def test_manifest_fields(self, tmp_path):
        code, data = run_to_file(tmp_path, ["ball", "Z^1", "0", "1"])
        assert code == 0
        manifest = json.loads(data)["manifest"]
        assert manifest["command"] == "ball"
        assert manifest["tool_version"] == TOOL_VERSION
        assert len(manifest["config_hash"]) == 64

    @pytest.mark.parametrize("group, center, radius", [("Z^2", "[3,-4]", 60), ("Z^3", "[-7,2,5]", 14),
                                                       ("Z^1", "0", 1000)])
    def test_ball_report_is_the_indented_dump_at_benchmark_sizes(self, tmp_path, group, center, radius):
        """The arrays of a large ball report are laid out to exactly the
        bytes the standard library's indented dump writes for their lists."""
        code, data = run_to_file(tmp_path, ["ball", group, center, str(radius)])
        assert code == 0
        assert len(payload_of(data)["result"]) == ball_size(FreeAbelian(int(group[2:])), radius)
        assert data == (json.dumps(json.loads(data), sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")

    def test_byte_identical_reruns(self, tmp_path, pc3_spec):
        out = tmp_path / "report.json"
        argv = ["simulate", pc3_spec, "--window", "20", "--margin", "2",
                "--steps", "10", "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        out.unlink()
        assert main(argv) == 0
        second = out.read_bytes()
        assert first and first == second

    def test_config_hash_tracks_spec_contents(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "ProperColoring", "group": "Z^1", "k": 3}))
        argv = ["check", str(spec), "--mode", "local", "--budget", "50"]
        _, before = run_to_file(tmp_path, argv, "a.json")
        spec.write_text(json.dumps({"kind": "ProperColoring", "group": "Z^1", "k": 4}))
        _, after = run_to_file(tmp_path, argv, "b.json")
        hash_a = json.loads(before)["manifest"]["config_hash"]
        hash_b = json.loads(after)["manifest"]["config_hash"]
        assert hash_a != hash_b


class TestSearchCommands:
    def test_dseq_frozen_scales(self, tmp_path):
        code, data = run_to_file(tmp_path, ["dseq", "Z^1", "3"])
        assert code == 0
        payload = payload_of(data)
        assert payload["values"] == [1, 3, 7, 15]
        assert payload["witnesses"][0] is None
        assert all(w is not None for w in payload["witnesses"][1:])

    def test_dseq_z2_witness_layout(self, tmp_path):
        # Z^2 centres are tuples; the report writes them as lists
        code, data = run_to_file(tmp_path, ["dseq", "Z^2", "2"])
        assert code == 0
        assert payload_of(data) == {
            "count": 2,
            "group": "Z^2",
            "values": [1, 3, 7],
            "witnesses": [
                None,
                {"center_a": [-1, 0], "center_b": [0, -2], "enclosing_radius": 3,
                 "inner_radius": 1},
                {"center_a": [-3, 0], "center_b": [0, -4], "enclosing_radius": 7,
                 "inner_radius": 3},
            ],
        }

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_zd_ball_matches_sorted_breadth_first_reference(self, data):
        """Z^d balls come from int64 arrays while centre and radius pack,
        and from Group.ball past that; both equal the sorted BFS ball."""
        g = FreeAbelian(data.draw(st.integers(1, 3)))
        edges = [2**62 - 1, -(2**62) + 1, 2**63 - 1, -(2**63), 2**64]  # pack limit, int64
        near_edge = st.sampled_from(edges).flatmap(lambda c: st.integers(c - 3, c + 3))
        coords = [data.draw(st.one_of(st.integers(-5, 5), near_edge)) for _ in range(g.dimension)]
        center = coords[0] if g.dimension == 1 else tuple(coords)
        r = data.draw(st.integers(-1, 4))
        with tempfile.TemporaryDirectory() as tmp:
            code, data_bytes = run_to_file(Path(tmp), ["ball", g.name, json.dumps(coords), str(r)])
        assert code == 0
        expected = sorted(bfs_ball(g, center, r), key=g.sort_key)
        assert payload_of(data_bytes)["result"] == [g.element_to_json(e) for e in expected]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fk_ball_matches_sorted_breadth_first_reference(self, data):
        """F_k balls equal the sorted BFS ball, past pack_limit too (F_1
        centres of 40 letters or more), and on F_18, whose base 37 is past
        the 36 digits int reads."""
        g = FreeGroup(data.draw(st.sampled_from([1, 2, 3, 18])))
        letters = st.lists(st.sampled_from(g.generators()), max_size=8)
        long_f1 = st.integers(36, 46).flatmap(lambda n: st.sampled_from(["a" * n, "A" * n]))
        center = data.draw(st.one_of(st.just(""), letters.map(lambda w: functools.reduce(g.mul, w, "")),
                                     long_f1 if g.rank == 1 else st.nothing()))
        r = data.draw(st.integers(-1, {1: 6, 2: 4, 3: 3, 18: 2}[g.rank]))
        with tempfile.TemporaryDirectory() as tmp:
            code, data_bytes = run_to_file(Path(tmp), ["ball", g.name, center or "1", str(r)])
        assert code == 0
        assert payload_of(data_bytes)["result"] == sorted(bfs_ball(g, center, r), key=g.sort_key)

    def test_ball_past_memory_exits_three(self, tmp_path, capsys):
        g = FreeAbelian(3)
        assert ball_size(g, 10**6) * (2 * 3 + 1) * 8 > 1 << 40  # refused, never allocated
        code, data = run_to_file(tmp_path, ["ball", "Z^3", "[0,0,0]", "1000000"])
        assert code == 3 and data == b""
        assert "physical memory" in capsys.readouterr().err

    def test_decoded_ball_past_memory_exits_three(self, tmp_path, capsys, monkeypatch):
        """Memory read as just the charge of Ball(1, 8) of F_2 as arrays: the
        words are charged too, and refused before they are decoded."""
        g = FreeGroup(2)
        monkeypatch.setattr(groups, "physical_memory", lambda: groups._ball_bytes(g, 8, False))
        identity_ball.cache_clear()
        code, data = run_to_file(tmp_path, ["ball", "F_2", "a", "8"])
        assert code == 3 and data == b""
        assert "decoded Ball(1, 8) of F_2" in capsys.readouterr().err

    def test_region_past_memory_exits_three(self, tmp_path, monkeypatch, capsys):
        """A simulate whose region, Ball(1, 16) of F_2, is charged past 8 GiB
        of memory exits 3 before the region is built."""
        spec = tmp_path / "pc5.json"
        spec.write_text(json.dumps({"kind": "ProperColoring", "group": "F_2", "k": 5}))
        monkeypatch.setattr(groups, "physical_memory", lambda: 8 << 30)
        code, data = run_to_file(tmp_path, ["simulate", str(spec), "--window", "14", "--margin", "2", "--steps", "4"])
        assert code == 3 and data == b""
        assert "Ball(1, 16) of F_2 needs" in capsys.readouterr().err

    def test_steps_past_memory_exit_three(self, tmp_path, monkeypatch, capsys):
        """A simulate whose steps, charged ``_STEP_BYTES`` each beside its
        region's charge, pass memory exits 3 before the run builds anything
        a step; one step fewer runs. No large count is run: a refused
        100,000-step run allocates under 64 KiB."""
        spec = tmp_path / "pc3.json"
        spec.write_text(json.dumps({"kind": "ProperColoring", "group": "Z^1", "k": 3}))
        g = FreeAbelian(1)
        memory = groups._ball_bytes(g, 4, False) + 8 * groups._STEP_BYTES
        monkeypatch.setattr(groups, "physical_memory", lambda: memory - 1)
        argv = ["simulate", str(spec), "--window", "2", "--margin", "2", "--out", str(tmp_path / "out.json")]
        assert main([*argv, "--steps", "8"]) == 3
        assert f"a run of 8 steps on Ball(1, 4) of Z^1 needs more than {memory - 1} bytes" in capsys.readouterr().err
        assert main([*argv, "--steps", "7"]) == 0
        monkeypatch.setattr(groups, "physical_memory", lambda: memory)
        assert main([*argv, "--steps", "8"]) == 0
        config = SimulationConfig(ideal_from_json({"kind": "ProperColoring", "group": "Z^1", "k": 3}), 2, 2, 100_000)
        tracemalloc.start()
        try:
            with pytest.raises(groups.BudgetError, match="a run of 100000 steps"):
                run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_dseq_budget_exhaustion(self, tmp_path):
        code, data = run_to_file(tmp_path, ["dseq", "Z^1", "10", "--budget", "20"])
        assert code == 3
        assert data == b""

    def test_annulus_on_the_line(self, tmp_path):
        code, data = run_to_file(tmp_path, ["annulus", "Z^1", "3"])
        assert code == 0
        payload = payload_of(data)
        assert payload["D"] == 13
        assert payload["witness"]["annulus_low"] == 6

    def test_verify_infty_refuted_agrees_with_counting(self, tmp_path):
        code, data = run_to_file(
            tmp_path, ["verify-infty", "Z^1", "--d", "1,3", "--c", "1"]
        )
        assert code == 0
        payload = payload_of(data)
        assert payload["search"]["outcome"] == "refuted"
        assert payload["counting"]["refuted"] is True
        assert payload["agree"] is True

    def test_verify_infty_witness_exits_one(self, tmp_path):
        code, data = run_to_file(tmp_path, ["verify-infty", "Z^1", "--d", "0", "--c", "0"])
        assert code == 1
        payload = payload_of(data)
        assert payload["search"]["outcome"] == "witness"
        assert payload["agree"] is True

    @pytest.mark.parametrize(
        "argv", [["Z^2", "--d=-2", "--c", "0"], ["Z^1", "--d=-1,3", "--c", "1"]]
    )
    def test_verify_infty_negative_scale_exits_two(self, tmp_path, capsys, argv):
        code, data = run_to_file(tmp_path, ["verify-infty", *argv])
        assert code == 2 and data == b""
        err = capsys.readouterr().err
        assert err.startswith("error: d entries must be nonnegative") and err.count("\n") == 1

    def test_verify_infty_budget_exits_three(self, tmp_path):
        code, data = run_to_file(
            tmp_path, ["verify-infty", "Z^1", "--d", "1,3,7", "--c", "2", "--budget", "10"]
        )
        assert code == 3
        assert payload_of(data)["search"]["outcome"] == "inconclusive"

    def test_verify_infty_ball_past_the_recursion_limit_exits_one(self, tmp_path):
        code, data = run_to_file(tmp_path, ["verify-infty", "Z^1", "--d", "0,600", "--c", "1"])
        assert code == 1
        payload = payload_of(data)
        assert payload["search"]["outcome"] == "witness" and payload["search"]["nodes"] == 1201
        assert len(payload["search"]["witness"]["entries"]) == 1201
        assert payload["agree"] is True

    def test_verify_infty_search_space_past_4300_digits_exits_three(self, tmp_path):
        """12^8191 has 8,840 digits, past the interpreter's default limit on
        int-to-string conversion: the report still writes it exactly."""
        d = ",".join(str(2**k - 1) for k in range(1, 13))
        code, data = run_to_file(tmp_path, ["verify-infty", "Z^1", "--d", d, "--c", "11", "--budget", "0"])
        assert code == 3
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            search = payload_of(data)["search"]
        finally:
            sys.set_int_max_str_digits(limit)
        assert search["outcome"] == "inconclusive" and search["nodes"] == 1
        assert search["search_space"] == 12**8191


class TestIdealCommands:
    def test_check_local_clean(self, tmp_path, pc3_spec):
        code, data = run_to_file(tmp_path, ["check", pc3_spec, "--mode", "local"])
        assert code == 0
        assert payload_of(data)["report"]["ok"] is True

    def test_check_axioms_clean(self, tmp_path, pc3_spec):
        code, data = run_to_file(
            tmp_path, ["check", pc3_spec, "--mode", "ideal-axioms", "--budget", "60"]
        )
        assert code == 0

    def test_check_local_reduced_spec_clean(self, tmp_path):
        """Reduced colours are pairs (h, c), and the sampled patterns carry
        pairs."""
        spec = tmp_path / "reduced.json"
        spec.write_text(json.dumps(REDUCED_PC3_SPEC))
        code, data = run_to_file(tmp_path, ["check", str(spec), "--mode", "local"])
        assert code == 0
        report = payload_of(data)["report"]
        assert report["ok"] and report["loc_members_examined"] > 0

    def test_check_join_violation_exits_one(self, tmp_path, pc2_join_refuted_spec):
        code, data = run_to_file(
            tmp_path, ["check", pc2_join_refuted_spec, "--mode", "join", "--budget", "80"]
        )
        assert code == 1
        report = payload_of(data)["report"]
        assert report["ok"] is False and report["violations"]

    def test_reduce_clean(self, tmp_path, pc3_spec):
        """Without --dump the payload holds no sampled patterns."""
        code, data = run_to_file(tmp_path, ["reduce", pc3_spec, "--budget", "30"])
        assert code == 0
        payload = payload_of(data)
        assert payload["ok"] is True and payload["samples"] == 30
        assert "sampled_patterns" not in payload

    def test_reduce_violations_exit_one_in_emission_order(self, tmp_path, pc3_spec, monkeypatch):
        """Each of the five violation kinds, from growth, membership,
        decomposition and separation answers substituted in the reduction's
        namespace. Growth is substituted because it judges its own steps
        with the same ``reduced_contains``. The membership answers are, in
        call order: the empty pattern, sample 1 (rejected, so skipped),
        sample 2, sample 2's restriction. The real ``decompose`` partitions
        a pattern's entries by construction, so "decomposition-loses-entries"
        is reached only through a substitute, here one whose two pieces are
        empty."""
        answers = iter([False, False, True, False])
        grown = PartialColoring(Z1, {0: (1, 0), 1: (1, 1)})
        monkeypatch.setattr(reduction, "grow_random_member", lambda P, rng, size, radius: grown)
        monkeypatch.setattr(reduction, "reduced_contains", lambda reduced, phi: next(answers, True))
        monkeypatch.setattr(reduction, "decompose", lambda reduced, phi: SimpleNamespace(
            pieces=[phi.restrict([]), phi.restrict([])]))
        monkeypatch.setattr(reduction, "separated", lambda a, b, R: False)
        code, data = run_to_file(tmp_path, ["reduce", pc3_spec, "--budget", "2", "--seed", "0", "--dump"])
        assert code == 1
        payload = payload_of(data)
        assert payload["ok"] is False and payload["samples"] == 2
        assert [v["kind"] for v in payload["violations"]] == [
            "empty-not-member",
            "grown-sample-rejected",
            "restriction-escapes",
            "decomposition-loses-entries",
            "decomposition-pieces-not-separated",
        ]
        # sample 2 is the one dumped, and it is not empty, so it was decomposed
        [sample] = payload["sampled_patterns"]
        assert sample["entries"] and payload["violations"][-1]["pattern"] == sample

    def test_reduce_judges_separation_on_projections(self, tmp_path, monkeypatch):
        """R is applied to the projections of the pieces, as ``decompose``
        promises: the derived join of a DistanceConstrained base reads base
        colours, and on the product colours of the pieces themselves it
        raised "outside the palette", so ``reduce`` exited 2 on this member.
        Growth never yields a member of two pieces (each grown h exceeds
        the earlier ones and reaches every point), so one is substituted.
        The library's check is the CLI's: its report is the payload."""
        spec = {"kind": "DistanceConstrained", "group": "Z^1", "d": [1, 3], "h": [3, 7]}
        path = tmp_path / "dc.json"
        path.write_text(json.dumps(spec))
        base = ideal_from_json(spec)
        reduced = ReducedIdeal(base, join_fn_from_json("derived", base))
        member = PartialColoring(Z1, {0: (2, 0), 100: (2, 0)})
        assert len(decompose(reduced, member).pieces) == 2
        monkeypatch.setattr(reduction, "grow_random_member", lambda P, rng, size, radius: member)
        report = shiftcolor.check_reduction(reduced, 3, seed=0)
        assert report.ok and report.samples == 3 and report.sampled_patterns == [member] * 3
        code, data = run_to_file(tmp_path, ["reduce", str(path), "--budget", "3", "--dump"])
        assert code == 0 and payload_of(data) == to_jsonable(report)

    _BUDGETED = [
        ["check", "--mode", "ideal-axioms"],
        ["check", "--mode", "local"],
        ["check", "--mode", "join"],
        ["reduce"],
    ]

    @pytest.mark.parametrize("argv", [[argv[0], "{spec}", *argv[1:]] for argv in _BUDGETED] + [
        ["verify-infty", "Z^1", "--d", "1,3", "--c", "1"],
        ["oracle-extend", "{spec}", "{pattern}", "--radius", "1"],
        ["dseq", "Z^1", "3"],
        ["annulus", "Z^1", "1"],
    ])
    def test_negative_budget_exits_two(self, tmp_path, capsys, pc3_spec, argv):
        """Not exit 3, "budget exhausted": no search starts."""
        pattern = tmp_path / "pattern.json"
        pattern.write_text(json.dumps({"group": "Z^1", "entries": [[0, 0]]}))
        argv = [arg.format(spec=pc3_spec, pattern=pattern) for arg in argv]
        code, data = run_to_file(tmp_path, [*argv, "--budget", "-1"])
        assert code == 2 and data == b""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nonnegative" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", _BUDGETED)
    def test_zero_budget_checks_nothing_cleanly(self, tmp_path, pc3_spec, argv):
        code, data = run_to_file(tmp_path, [argv[0], pc3_spec, *argv[1:], "--budget", "0"])
        assert code == 0
        payload = payload_of(data)
        assert (payload["report"] if argv[0] == "check" else payload)["ok"] is True


class TestRunCommands:
    def test_simulate_clean(self, tmp_path, pc3_spec):
        code, data = run_to_file(
            tmp_path,
            ["simulate", pc3_spec, "--window", "20", "--margin", "2", "--steps", "12"],
        )
        assert code == 0
        payload = payload_of(data)
        assert payload["validation"]["ok"] is True
        assert payload["trace"]["steps"] == 12

    def test_simulate_pair_colour_schedule_runs_as_in_the_library(self, tmp_path):
        """A JSON --schedule names the pair colours of a reduced spec, and
        the run is the library's with the same colours as tuples."""
        spec = tmp_path / "reduced.json"
        spec.write_text(json.dumps(REDUCED_PC3_SPEC))
        code, data = run_to_file(
            tmp_path,
            ["simulate", str(spec), "--window", "40", "--margin", "6", "--steps", "12",
             "--p", "1/13", "--seed", "2", "--dump", "--schedule", "[[1,0],[1,1],[1,2]]"],
        )
        assert code == 0
        ideal = ideal_from_json(REDUCED_PC3_SPEC)
        trace = run(SimulationConfig(ideal=ideal, window_radius=40, margin=6, steps=12,
                                     p=Fraction(1, 13), seed=2, schedule=[(1, 0), (1, 1), (1, 2)]))
        expected = {"trace": trace.to_summary_jsonable(dump=True),
                    "validation": trace_validate(trace, ideal)}
        assert payload_of(data) == to_jsonable(expected)
        assert sum(payload_of(data)["trace"]["assigned_counts"]) > 0

    def test_sparse_clean(self, tmp_path):
        code, data = run_to_file(
            tmp_path,
            ["sparse", "Z^1", "--d", "1,3,7", "--window", "10", "--m", "3", "--dump"],
        )
        assert code == 0
        payload = payload_of(data)
        assert payload["report"]["ok"] is True
        assert "coloring" in payload

    @pytest.mark.parametrize(
        "d, message",
        [("--d=-1,3", "nonnegative"), ("--d=1,-3", "nonnegative"),
         ("--d=3,1", "strictly increasing"), ("--d=3,3", "strictly increasing")],
    )
    def test_sparse_bad_scales_exit_two(self, tmp_path, capsys, d, message):
        code, data = run_to_file(tmp_path, ["sparse", "Z^1", d, "--window", "5", "--m", "2"])
        assert code == 2 and data == b""
        err = capsys.readouterr().err
        assert err.startswith("error: d ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("m", ["0", "1"])
    def test_sparse_negative_window_exits_two(self, tmp_path, capsys, m):
        # it reported ok on an empty window with --m 0, and with --m 1 gave
        # only "empty range for randrange()"
        code, data = run_to_file(tmp_path, ["sparse", "Z^1", "--d", "1,3", "--window", "-1", "--m", m])
        assert code == 2 and data == b""
        err = capsys.readouterr().err
        assert err.startswith("error: --window must be nonnegative") and err.count("\n") == 1

    def test_oracle_extend_refusal_and_witness(self, tmp_path, pc3_spec):
        spec = tmp_path / "pc2.json"
        spec.write_text(json.dumps({"kind": "ProperColoring", "group": "Z^1", "k": 2}))
        blocked = tmp_path / "blocked.json"
        blocked.write_text(json.dumps({"group": "Z^1", "entries": [[0, 0], [3, 0]]}))
        okpat = tmp_path / "ok.json"
        okpat.write_text(json.dumps({"group": "Z^1", "entries": [[0, 0], [3, 1]]}))

        code, data = run_to_file(
            tmp_path, ["oracle-extend", str(spec), str(blocked), "--radius", "3"], "r1.json"
        )
        assert code == 0 and payload_of(data)["outcome"] == "refuted"

        code, data = run_to_file(
            tmp_path, ["oracle-extend", str(spec), str(okpat), "--radius", "3"], "r2.json"
        )
        assert code == 0 and payload_of(data)["outcome"] == "witness"

        code, data = run_to_file(
            tmp_path,
            ["oracle-extend", str(spec), str(okpat), "--radius", "3", "--budget", "3"],
            "r3.json",
        )
        assert code == 3 and payload_of(data)["outcome"] == "inconclusive"

    def test_oracle_extend_past_the_recursion_limit_exits_zero(self, tmp_path):
        spec = tmp_path / "pc5.json"
        spec.write_text(json.dumps({"kind": "ProperColoring", "group": "Z^2", "k": 5}))
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"group": "Z^2", "entries": [[[0, 0], 0]]}))
        code, data = run_to_file(tmp_path, ["oracle-extend", str(spec), str(point), "--radius", "22"])
        assert code == 0
        payload = payload_of(data)
        assert payload["outcome"] == "witness" and payload["nodes"] == 1496
        assert payload["detail"]["free_points"] == 1012
        assert len(payload["witness"]["entries"]) == 1013

    def test_extract_parity(self, tmp_path):
        pat = tmp_path / "parity.json"
        pat.write_text(
            json.dumps({"group": "Z^1", "entries": [[i, i % 2] for i in range(-6, 7)]})
        )
        code, data = run_to_file(
            tmp_path, ["extract", str(pat), "--radius", "1", "--min-occurrences", "2"]
        )
        assert code == 0
        payload = payload_of(data)
        assert payload["count"] == 2


def _input_argv(tmp_path, command):
    """argv for ``command`` on a PC3 spec of Z^1 and a two-point pattern,
    and its input paths."""
    spec, pattern = tmp_path / "pc3.json", tmp_path / "pattern.json"
    spec.write_text(json.dumps({"kind": "ProperColoring", "group": "Z^1", "k": 3}))
    pattern.write_text(json.dumps({"group": "Z^1", "entries": [[0, 0], [2, 1]]}))
    argv = {"simulate": ["simulate", str(spec), "--window", "2", "--margin", "2", "--steps", "4"],
            "check": ["check", str(spec), "--mode", "local", "--budget", "20"],
            "oracle-extend": ["oracle-extend", str(spec), str(pattern), "--radius", "2"],
            "extract": ["extract", str(pattern), "--radius", "1"]}[command]
    return argv, [a for a in argv if a in (str(spec), str(pattern))]


class TestInputsReadOnce:
    """Each input file is opened once: the manifest hashes its text and the
    command parses that same text, so the hash covers the bytes run on."""

    COMMANDS = ["simulate", "check", "oracle-extend", "extract"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_input_is_opened_once(self, tmp_path, monkeypatch, command):
        argv, inputs = _input_argv(tmp_path, command)
        opened, real_open = Counter(), builtins.open

        def counting_open(file, *args, **kwargs):
            opened[str(file)] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
        assert {path: opened[path] for path in inputs} == dict.fromkeys(inputs, 1)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_file_rewritten_after_its_read_is_run_as_read(self, tmp_path, monkeypatch, command):
        """Rewriting every input once it has been read changes nothing in
        the report, its config hash included."""
        argv, inputs = _input_argv(tmp_path, command)
        code, expected = run_to_file(tmp_path, argv)
        (tmp_path / "report.json").unlink()
        real_open = builtins.open

        def rewriting_open(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            if str(file) in inputs:
                text = fh.read()
                Path(file).write_text("not json")
                return io.StringIO(text)
            return fh

        monkeypatch.setattr(builtins, "open", rewriting_open)
        assert run_to_file(tmp_path, argv) == (code, expected) and code == 0

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("fault", ["missing", "malformed"])
    def test_missing_or_malformed_inputs_exit_two(self, tmp_path, capsys, command, fault):
        argv, inputs = _input_argv(tmp_path, command)
        for path in inputs:  # one faulty input at a time
            text = Path(path).read_text()
            if fault == "missing":
                Path(path).unlink()
            else:
                Path(path).write_text("{not json")
            code, data = run_to_file(tmp_path, argv)
            assert code == 2 and data == b""
            assert capsys.readouterr().err.startswith("error: ")
            Path(path).write_text(text)


class TestUsageErrors:
    def test_bad_group_exits_two(self, tmp_path):
        assert main(["ball", "Q^1", "0", "2", "--out", str(tmp_path / "x.json")]) == 2

    def test_missing_spec_file_exits_two(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["check", missing, "--mode", "local"]) == 2

    def test_malformed_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{не json")
        assert main(["check", str(bad), "--mode", "local"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["check", "--mode", "local"], ["check", "--mode", "join"],
         ["simulate", "--window", "2", "--margin", "2", "--steps", "2"], ["reduce"],
         ["oracle-extend", "--radius", "1"]],
        ids=["check-local", "check-join", "simulate", "reduce", "oracle-extend"],
    )
    @pytest.mark.parametrize(
        "spec",
        [[1, 2], "x", {"kind": "Reduced", "base": [1], "R": "derived"},
         {"ideal": [1], "R": "derived"}],
        ids=["list", "string", "reduced-base-list", "wrapped-list"],
    )
    def test_spec_not_an_object_exits_two(self, tmp_path, capsys, spec, argv):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        pattern = tmp_path / "pattern.json"
        pattern.write_text(json.dumps({"group": "Z^1", "entries": []}))
        files = [str(path), str(pattern)] if argv[0] == "oracle-extend" else [str(path)]
        code, data = run_to_file(tmp_path, [argv[0], *files, *argv[1:]])
        assert code == 2 and data == b""
        assert capsys.readouterr().err.startswith("error: an ideal spec is a JSON object, got ")

    @pytest.mark.parametrize("argv", [["check", "--mode", "join"], ["reduce"]], ids=["check-join", "reduce"])
    @pytest.mark.parametrize("R", [[1], "x", 3], ids=["list", "string", "number"])
    def test_join_spec_not_an_object_exits_two(self, tmp_path, capsys, R, argv):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"ideal": {"kind": "ProperColoring", "group": "Z^1", "k": 3}, "R": R}))
        code, data = run_to_file(tmp_path, [argv[0], str(path), *argv[1:]])
        assert code == 2 and data == b""
        assert capsys.readouterr().err == f"error: unknown join function form {R!r}\n"

    @pytest.mark.parametrize("schedule", ["5", "-1"])
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "DistanceConstrained", "group": "Z^1", "d": [1, 3], "h": [3, 7]},
            {"kind": "NotUniversal", "group": "Z^1", "d": [1, 3], "D": [5, 13]},
        ],
        ids=["distance", "not-universal"],
    )
    def test_schedule_outside_palette_exits_two(self, tmp_path, capsys, spec, schedule):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, data = run_to_file(
            tmp_path,
            ["simulate", str(path), "--window", "10", "--margin", "30", "--steps", "4",
             "--schedule", schedule],
        )
        assert code == 2 and data == b""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @staticmethod
    def _usage_error(tmp_path, capsys, argv, spec_text=None):
        """Run argv with a spec file holding spec_text (raw JSON, so that
        1e999 stays a number) in place of SPEC; the one stderr line."""
        if spec_text is not None:
            spec = tmp_path / "spec.json"
            spec.write_text(spec_text)
            argv = [str(spec) if a == "SPEC" else a for a in argv]
        code, data = run_to_file(tmp_path, argv)
        assert code == 2 and data == b""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "argv, spec_text",
        [
            (["simulate", "SPEC", "--window", "3", "--margin", "2", "--steps", "2", "--p", "1/0"],
             '{"kind": "ProperColoring", "group": "Z^1", "k": 3}'),
            (["simulate", "SPEC", "--window", "3", "--margin", "30", "--steps", "2"],
             '{"kind": "DistanceConstrained", "group": "Z^1", "d": [1, 3], "h": ["1/0", 7]}'),
            (["check", "SPEC", "--mode", "join"],
             '{"ideal": {"kind": "ProperColoring", "group": "Z^1", "k": 3},'
             ' "R": {"form": "Constant", "value": [1, 0]}}'),
        ],
        ids=["simulate-p", "spec-h", "join-R"],
    )
    def test_zero_denominator_exits_two(self, tmp_path, capsys, argv, spec_text):
        """A zero denominator is bad input, not a crash (exit 1 reads as a
        found violation)."""
        err = self._usage_error(tmp_path, capsys, argv, spec_text)
        assert "zero denominator" in err

    @pytest.mark.parametrize("p", ["0", "1", "3/2", "-1/2"])
    def test_density_outside_the_unit_interval_exits_two(self, tmp_path, capsys, p):
        """The density rule has one statement and one message, whoever
        applies it: here the config's validation, before any field is
        drawn."""
        argv = ["simulate", "SPEC", "--window", "3", "--margin", "2", "--steps", "2", f"--p={p}"]
        err = self._usage_error(tmp_path, capsys, argv, '{"kind": "ProperColoring", "group": "Z^1", "k": 3}')
        assert err == f"error: support density must lie strictly between 0 and 1, got {Fraction(p)}\n"

    @pytest.mark.parametrize(
        "argv, spec_text, named",
        [
            (["ball", "Z^2", "[2.7,0]", "0"], None, "not a Z^2 element: [2.7, 0]"),
            (["ball", "Z^2", '["1",0]', "0"], None, "not a Z^2 element: ['1', 0]"),
            (["ball", "F_2", "true", "0"], None, "not a F_2 element: True"),
            (["extract", "SPEC", "--radius", "0"],
             '{"group": "Z^2", "entries": [[[0.5, 0], 0]]}', "not a Z^2 element: [0.5, 0]"),
            (["check", "SPEC", "--mode", "local"],
             '{"kind": "ProperColoring", "group": "Z^1", "k": 2.9}', "k must be an integer"),
            (["check", "SPEC", "--mode", "local"],
             '{"kind": "ProperColoring", "group": "Z^1", "k": true}', "k must be an integer"),
            (["check", "SPEC", "--mode", "local"],
             '{"kind": "ProperColoring", "group": "Z^1", "k": "3"}', "k must be an integer"),
            (["check", "SPEC", "--mode", "local"],
             '{"kind": "ProperColoring", "group": "Z^1", "k": 1e999}', "k must be an integer"),
            (["check", "SPEC", "--mode", "local"],
             '{"kind": "DistanceConstrained", "group": "Z^1", "d": [1.5, 3.7], "h": [3, 7]}',
             "each d entry must be an integer"),
            (["check", "SPEC", "--mode", "local"],
             '{"kind": "NotUniversal", "group": "Z^1", "d": [1, 3], "D": [5, 13.0]}',
             "each D entry must be an integer"),
            (["check", "SPEC", "--mode", "join"],
             '{"ideal": {"kind": "ProperColoring", "group": "Z^1", "k": 3},'
             ' "R": {"form": "Constant", "value": [true, 2]}}',
             "each radius pair entry must be an integer"),
        ],
        ids=["ball-float", "ball-string", "ball-f2-bool", "pattern-float", "k-float", "k-bool",
             "k-string", "k-overflow", "d-float", "D-float", "radius-pair-bool"],
    )
    def test_non_integer_number_exits_two(self, tmp_path, capsys, argv, spec_text, named):
        """Numbers are not coerced at the boundary: 2.9 is not read as 2, nor
        true as 1."""
        err = self._usage_error(tmp_path, capsys, argv, spec_text)
        assert named in err

    def test_oracle_negative_palette_max_exits_two(self, tmp_path, capsys, pc3_spec):
        """Not a refusal certificate over a palette of -4 colours."""
        pattern = tmp_path / "pattern.json"
        pattern.write_text(json.dumps({"group": "Z^1", "entries": [[0, 0]]}))
        code, data = run_to_file(
            tmp_path,
            ["oracle-extend", pc3_spec, str(pattern), "--radius", "1", "--palette-max", "-5"],
        )
        assert code == 2 and data == b""
        assert capsys.readouterr().err == "error: palette_max must be nonnegative, got -5\n"

    @pytest.mark.parametrize("extra", [[], ["--palette-max", "2"]], ids=["no-palette-max", "palette-max-2"])
    def test_oracle_on_a_reduced_ideal_exits_two(self, tmp_path, capsys, extra):
        """The oracle tries the colours 0..palette_max, which a reduced
        ideal's pair colours are not: one refusal, with or without
        --palette-max, before any search."""
        spec = tmp_path / "reduced.json"
        spec.write_text(json.dumps({"kind": "Reduced", "base": {"kind": "ProperColoring", "group": "Z^1", "k": 3},
                                    "R": {"form": "SupOfRadii", "r": [1, 1, 1]}}))
        pattern = tmp_path / "pattern.json"
        pattern.write_text(json.dumps({"group": "Z^1", "entries": [[0, [1, 0]]]}))
        code, data = run_to_file(tmp_path, ["oracle-extend", str(spec), str(pattern), "--radius", "1", *extra])
        assert code == 2 and data == b""
        assert capsys.readouterr().err == (
            "error: the extension oracle searches the colours 0..palette_max; Reduced colours are not naturals\n")

    def test_oracle_palette_max_beyond_palette_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "nu.json"
        spec.write_text(json.dumps({"kind": "NotUniversal", "group": "Z^1", "d": [1, 3],
                                    "D": [5, 13]}))
        pattern = tmp_path / "pattern.json"
        pattern.write_text(json.dumps({"group": "Z^1", "entries": [[0, 0]]}))
        code, data = run_to_file(
            tmp_path,
            ["oracle-extend", str(spec), str(pattern), "--radius", "2", "--palette-max", "5"],
        )
        assert code == 2 and data == b""
        assert capsys.readouterr().err == "error: color 2 is outside the palette of 2 colors\n"

    def test_proper_coloring_schedule_beyond_k_exits_zero(self, tmp_path, pc3_spec):
        code, data = run_to_file(
            tmp_path,
            ["simulate", pc3_spec, "--window", "10", "--margin", "2", "--steps", "4",
             "--schedule", "3"],
        )
        assert code == 0
        assert payload_of(data)["trace"]["assigned_counts"] == [0, 0, 0, 0]

    @pytest.mark.parametrize(
        "flags, named",
        [(["--radius", "-1"], "shape radius"),
         (["--radius", "1", "--min-occurrences", "-3"], "occurrence count")],
        ids=["radius", "min-occurrences"],
    )
    def test_extract_negative_arguments_exit_two(self, tmp_path, capsys, flags, named):
        """As ``oracle-extend --radius -1`` does: a negative radius would
        count every centre as interior and report one empty pattern."""
        err = self._usage_error(tmp_path, capsys, ["extract", "SPEC", *flags],
                                '{"group": "Z^1", "entries": [[0, 0], [1, 1], [2, 0]]}')
        assert named in err

    def test_reduced_spec_plain_colour_schedule_exits_two(self, tmp_path, capsys):
        err = self._usage_error(
            tmp_path, capsys,
            ["simulate", "SPEC", "--window", "5", "--margin", "6", "--steps", "3", "--schedule", "1"],
            json.dumps(REDUCED_PC3_SPEC),
        )
        assert err == "error: reduced colours are pairs (h, c), got 1\n"

    @pytest.mark.parametrize("schedule", ["[1,0],[1,1],[1,2]", "[[1,0],[1,1]", "[1,"])
    def test_malformed_schedule_list_exits_two(self, tmp_path, capsys, schedule):
        err = self._usage_error(
            tmp_path, capsys,
            ["simulate", "SPEC", "--window", "5", "--margin", "6", "--steps", "3",
             "--schedule", schedule],
            json.dumps(REDUCED_PC3_SPEC),
        )
        assert err.startswith(f"error: --schedule {schedule!r} is not a JSON list: ")

    def test_unwritable_out_exits_two(self, tmp_path, pc3_spec):
        target = str(tmp_path / "no" / "such" / "dir" / "x.json")
        assert main(["ball", "Z^1", "0", "1", "--out", target]) == 2


def test_cached_parser_gives_the_bytes_of_a_fresh_one(tmp_path, pc3_spec):
    """main reuses one parser; a sequence of subcommands, with flags given
    and then left at their defaults, reads as it does with a new parser
    built for every call."""
    argvs = [
        ["ball", "Z^2", "[1,0]", "2"],
        ["check", pc3_spec, "--mode", "local", "--budget", "20", "--seed", "4"],
        ["simulate", pc3_spec, "--window", "10", "--margin", "2", "--steps", "5", "--dump",
         "--no-warmup", "--schedule", "2,1"],
        ["check", pc3_spec, "--mode", "join"],
        ["simulate", pc3_spec, "--window", "10", "--margin", "2", "--steps", "5"],
        ["dseq", "Z^1", "2"],
        ["reduce", pc3_spec, "--budget", "3", "--dump"],
        ["reduce", pc3_spec, "--budget", "3"],
    ]

    def outputs(fresh):
        out = []
        for i, argv in enumerate(argvs):
            if fresh:
                cli._build_parser.cache_clear()
            out.append(run_to_file(tmp_path, argv, name=f"{i}.json"))
        return out

    cached = outputs(fresh=False)
    assert cli._build_parser() is cli._build_parser()
    assert cached == outputs(fresh=True)
    assert all(data for _code, data in cached)


# -- recorded report digests -------------------------------------------------

_DIGEST_SPECS = {
    "pc3z1": {"kind": "ProperColoring", "group": "Z^1", "k": 3},
    "pc5z2": {"kind": "ProperColoring", "group": "Z^2", "k": 5},
    "pc5f2": {"kind": "ProperColoring", "group": "F_2", "k": 5},
    "dcz1": {"kind": "DistanceConstrained", "group": "Z^1", "d": [1, 3], "h": [3, 7]},
    "nuz1": {"kind": "NotUniversal", "group": "Z^1", "d": [1, 3], "D": [5, 13]},
    "pc2z1": {"kind": "ProperColoring", "group": "Z^1", "k": 2},
    "blocked": {"group": "Z^1", "entries": [[0, 0], [3, 0]]},
    "pc3z2": {"kind": "ProperColoring", "group": "Z^2", "k": 3},
    "pair_z2": {"group": "Z^2", "entries": [[[0, 0], 0], [[2, -1], 1]]},
    "parity": {"group": "Z^1", "entries": [[i, i % 2] for i in range(-6, 7)]},
}

_SIMULATIONS = {
    "pc3z1": ["--window", "200", "--margin", "2", "--steps", "30", "--seed", "3"],
    "pc5z2": ["--window", "8", "--margin", "2", "--steps", "30", "--p", "1/8", "--seed", "1"],
    "pc5f2": ["--window", "3", "--margin", "2", "--steps", "20", "--p", "1/8", "--seed", "2"],
    "dcz1": ["--window", "300", "--margin", "12", "--steps", "40", "--p", "1/8", "--seed", "4"],
    "nuz1": ["--window", "150", "--margin", "26", "--steps", "60", "--p", "1/20", "--seed", "5"],
}

# command name -> (exit code, sha256 of the canonical payload)
_RECORDED_DIGESTS = {
    "simulate/pc3z1": (0, "1905f92f49f7103507fe3f738c3817f1059dde775582248f0094c714cbb84ef7"),
    "simulate/pc3z1/no-warmup": (1, "d3440f60ab23354139c14974c5f1614981ab993ba8ff6842e84213853c793faa"),
    "simulate/pc5z2": (0, "9adc367b506ab0fd881f50ee45bdbe56cf375890dae90345fa1e2d818eccab61"),
    "simulate/pc5z2/no-warmup": (1, "25969ea6e0512f0cd89a66823a95e892d450b2a2b61de6ef68979971589b004e"),
    "simulate/pc5f2": (0, "6f2db3f8af14b24e1811a9398d0e9d75d435c546d4d96de83017e9ff15342319"),
    "simulate/pc5f2/no-warmup": (1, "674ba51d15e20d34efa4d4ba1ddc613e57f85bc57c42d0589d030ac7c24f1d37"),
    "simulate/dcz1": (0, "ee8f9b36a8692c080ef8c210be5ea0dd8da87d81d8e0b9a21eb03f5d353025ac"),
    "simulate/dcz1/no-warmup": (1, "9474be9b948b0948811ff6d82066b362afb652ffd4851f36a4e03d878bfc96f4"),
    "simulate/nuz1": (0, "db287f88a5f74c41ec097988d7bffa5ee392627584b46c7864573475fcaf3b6e"),
    "simulate/nuz1/no-warmup": (1, "d77d6a75bd760605b42e3b0af004a55c57c970bcd197b5776b1502998948c29e"),
    "check/pc3z1/ideal-axioms": (0, "de824aadd7ca34e41e872491c8b7665e814f095f50b9d9209e9e2340edece42f"),
    "check/pc3z1/local": (0, "2710c5b2fe747d4f12026000ea4d44202cde62e1fbd82b7ae6a4d11bbbc6796b"),
    "check/pc3z1/join": (0, "6ac2dfc0ea8339671a234d5af19907d97b93ae57ee5b3c42f1f63afb7a982a92"),
    "check/nuz1/ideal-axioms": (0, "a7b028c91631ef6b15bebff88a38346770fc05367a3ecf23dcf748138949c043"),
    "check/nuz1/local": (0, "e1e6d3fc81d875c2957b1e2e93bad771e54764c13b235e5f94afa3c87203a0f7"),
    "check/nuz1/join": (0, "9c8678735e498fd3e929c77ed808db8a179648b030816ee0833e782f2940eba2"),
    "check/pc5f2/ideal-axioms": (0, "b5833de06ce7f2e5f412a1ac7ee9a74b68428cb68640c7772a0c5f2315b4a12d"),
    "check/pc5f2/local": (0, "0ca8dff2c4a98cabffc77284968f963b8517298f1c26e6612518f2fcfd307d8d"),
    "check/pc5f2/join": (0, "3e5e1df6b332c33476c29001aa970bc65988eed7e6f0a0b2496504d3d30cce45"),
    "reduce/pc3z1": (0, "3e423b94ea7027e04c2038fb975b690307361a0aa66a4923f174cef5598c0a70"),
    "oracle-extend/dead-end": (0, "1ece8d85562a315ece6c8b5495defea6df243bb3522a864411cbc075256c6a2a"),
    "oracle-extend/z2-witness": (0, "8628cb564f37bce90731cfa245d3280c51cf2a41b28634dd50434d8e66968e9a"),
    "ball/z2": (0, "87828ad0b23c3dfbbea5382dbe589b8b068a39c26a8c8bdfc0befa2cea5451e2"),
    "ball/z3": (0, "caa9ac3769e590e4917e4f0b1e3c15d627f722f7ee8bfd2682fb4dd1bd482f1a"),
    "ball/f2": (0, "5f14eb34e04f8e6911ba570ca01cf25d808d673d2962110fe9c5186315446334"),
    "ball/f3": (0, "a783a1ee45d99c5dc9ffa9e1458590e2442b4f7b0e6ccd9ee8420644e17f3e3d"),
    "ball/negative": (0, "1888cb0eb18ec4f0e621de9839de2c908f490d688af7d0c7e976a644566da959"),
    "dseq/z1": (0, "3248a5f0e5d604da2850a070e20e818ea25d5733db7f2231c9d6e664eb7a873f"),
    "dseq/f2": (0, "0d0523bee08414ecd574b931cd2d0eed2270626ae8771beecdb11d127600eb6b"),
    "annulus/z1": (0, "0643848bd58487f25c8fa369a9924cb874095435fd20faa60199ba8c1dadd603"),
    "annulus/z2": (0, "6808952b70b8ce488fb72455148003bd81bd8ceeadef82785b8ec6072c0de29d"),
    "annulus/f2": (0, "f295fb3bc249e1895ed637fc5cf803c89aa05362e0c4b60a153c6fa1cace5cbc"),
    "verify-infty/z1": (0, "92b05199c2c24d6c9281fa51426731a0cb8e38b00ed5a817cfe035e019863f72"),
    "verify-infty/z2": (0, "ef83c676b1f5bde829ea7ecae2af4411a83ee082e5958232577e309d45daeaaa"),
    "sparse/z1": (0, "6be8b13f029794c493f67fdd1b1bd4c97313c5ec97c88f62b15724b25287cfbb"),
    "sparse/f2": (0, "bcf690dc074d87b515b06dc25e5e345d8b8ed2dbc859c3a9c41aafb18291d917"),
    "extract/parity": (0, "e5e94f742a0ed2c5032253410eaecdf97747077d0f83f763e591c33d3bc1eedf"),
}


def _digest_commands():
    cases = {}
    for spec, args in _SIMULATIONS.items():
        argv = ["simulate", "{%s}" % spec, *args, "--dump"]
        cases[f"simulate/{spec}"] = argv
        cases[f"simulate/{spec}/no-warmup"] = [*argv, "--no-warmup"]
    for spec in ("pc3z1", "nuz1", "pc5f2"):
        for mode in ("ideal-axioms", "local", "join"):
            cases[f"check/{spec}/{mode}"] = ["check", "{%s}" % spec, "--mode", mode,
                                             "--budget", "40", "--seed", "1"]
    cases["reduce/pc3z1"] = ["reduce", "{pc3z1}", "--budget", "25", "--seed", "2", "--dump"]
    cases["oracle-extend/dead-end"] = ["oracle-extend", "{pc2z1}", "{blocked}", "--radius", "3"]
    cases["oracle-extend/z2-witness"] = ["oracle-extend", "{pc3z2}", "{pair_z2}", "--radius", "1"]
    cases["ball/z2"] = ["ball", "Z^2", "[3,-2]", "6"]
    cases["ball/z3"] = ["ball", "Z^3", "[1,0,-2]", "3"]
    cases["ball/f2"] = ["ball", "F_2", "aB", "3"]
    cases["ball/f3"] = ["ball", "F_3", "cA", "2"]
    cases["ball/negative"] = ["ball", "F_2", "a", "-1"]
    cases["dseq/z1"] = ["dseq", "Z^1", "4"]
    cases["dseq/f2"] = ["dseq", "F_2", "2"]
    cases["annulus/z1"] = ["annulus", "Z^1", "3"]
    cases["annulus/z2"] = ["annulus", "Z^2", "2"]
    cases["annulus/f2"] = ["annulus", "F_2", "2"]
    cases["verify-infty/z1"] = ["verify-infty", "Z^1", "--d", "1,3,7", "--c", "2"]
    cases["verify-infty/z2"] = ["verify-infty", "Z^2", "--d", "1,3", "--c", "1"]
    cases["sparse/z1"] = ["sparse", "Z^1", "--d", "1,3,7", "--window", "10", "--m", "3", "--dump"]
    cases["sparse/f2"] = ["sparse", "F_2", "--d", "1,3", "--window", "3", "--m", "2", "--dump"]
    cases["extract/parity"] = ["extract", "{parity}", "--radius", "1", "--min-occurrences", "2"]
    return cases


def test_reports_match_recorded_digests(tmp_path):
    """Report payloads of a fixed list of commands are pinned byte for byte.
    Only the payload is hashed: the manifest records the spec paths, which
    vary with the temporary directory."""
    from hashlib import sha256

    from shiftcolor.reports import canonical_json_bytes

    paths = {}
    for name, obj in _DIGEST_SPECS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    got = {}
    for name, argv in _digest_commands().items():
        argv = [a.format(**paths) if a.startswith("{") else a for a in argv]
        code, data = run_to_file(tmp_path, argv)
        got[name] = (code, sha256(canonical_json_bytes(payload_of(data))).hexdigest())
    assert got == _RECORDED_DIGESTS
