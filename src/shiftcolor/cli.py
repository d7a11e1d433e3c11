"""Batch command-line front end.

Every subcommand reads JSON (inline arguments or spec files), runs one
module operation, and emits a canonical JSON report wrapped in a manifest
envelope on stdout (or ``--out``). The handlers state no law of their
own: each check is a library function that returns a report, and its
``ok`` picks the exit code. Exit codes: 0 clean, 1 a checked
property was found violated, 2 usage or I/O trouble, 3 a budget ran out
before the search could conclude.

Report payload schemas are documented in the README; the envelope is
always ``{"schema_version", "manifest", "payload"}``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from .groups import BudgetError, FreeAbelian, annulus_D, d_sequence, parse_group
from .ideals import IdealSpec, ideal_axioms_check, ideal_from_json
from .oracles import INCONCLUSIVE, WITNESS, extension_oracle, infty_check, infty_counting_bound
from .patterns import PartialColoring
from .radii import parse_fraction
from .reduction import ReducedIdeal, check_join, check_local, check_reduction, join_fn_from_json
from .reports import build_manifest, envelope, json_bytes
from .simulate import SimulationConfig, run, sparse_run, trace_validate, extract_patterns

EXIT_CLEAN = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_element(group, text: str):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        raw = text  # reduced words are bare strings like "abA"
    return group.element_from_json(raw)


def _parse_int_list(text: str) -> List[int]:
    items = [t for t in text.replace(",", " ").split() if t]
    return [int(t) for t in items]


def _parse_schedule(text: str) -> list:
    """A JSON list when the text starts with '[', which can name pair
    colours ("[[1,0],[1,1]]"); otherwise comma-separated integers."""
    if not text.startswith("["):
        return _parse_int_list(text)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--schedule {text!r} is not a JSON list: {exc}") from None


def _emit(manifest: Dict[str, Any], payload: Any, out: Optional[str]) -> None:
    data = json_bytes(envelope(manifest, payload))
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _load_ideal_spec(text: str) -> Tuple[IdealSpec, Any]:
    """A spec file's text is either a bare ideal object (has "kind") or a
    wrapper {"ideal": ..., "R": ...} carrying a join-bound spec alongside.
    The join bound defaults to "derived", the one derived from the ideal's
    radii."""
    obj = json.loads(text)
    if isinstance(obj, dict) and "ideal" in obj:
        R = obj.get("R")
        return ideal_from_json(obj["ideal"]), "derived" if R is None else R
    return ideal_from_json(obj), "derived"


# -- subcommand handlers (each returns payload, exit code) -----------------------


def _cmd_ball(args, inputs) -> Tuple[dict, int]:
    g = parse_group(args.group)
    center = _parse_element(g, args.center)
    if isinstance(g, FreeAbelian):  # Ball(c, r) = Ball(1, r) + c, in sort_key (lexicographic) order
        coords = g.mul_packed(g.lex_ball(args.radius), g.pack([center]))
        result = coords if g.dimension > 1 else coords[:, 0]
    else:
        result = [g.element_to_json(e) for e in sorted(g.ball(center, args.radius), key=g.sort_key)]
    payload = {
        "group": g.spec_string(),
        "center": g.element_to_json(center),
        "radius": args.radius,
        "result": result,
    }
    return payload, EXIT_CLEAN


def _cmd_dseq(args, inputs) -> Tuple[dict, int]:
    g = parse_group(args.group)
    seq = d_sequence(g, args.count, budget=args.budget)
    payload = {
        "group": g.spec_string(),
        "count": args.count,
        "values": seq.values,
        "witnesses": seq.witnesses,
    }
    return payload, EXIT_CLEAN


def _cmd_annulus(args, inputs) -> Tuple[dict, int]:
    g = parse_group(args.group)
    D, witness = annulus_D(g, args.d, budget=args.budget)
    payload = {
        "group": g.spec_string(),
        "d": args.d,
        "D": D,
        "witness": witness,
    }
    return payload, EXIT_CLEAN


def _cmd_check(args, inputs) -> Tuple[dict, int]:
    ideal, R_json = _load_ideal_spec(inputs["spec"])
    budget = args.budget if args.budget is not None else 200
    if args.mode == "ideal-axioms":
        report = ideal_axioms_check(ideal, sample_budget=budget, seed=args.seed)
    elif args.mode == "local":
        report = check_local(ideal, ideal.locality_radius, enumeration_budget=budget, seed=args.seed)
    else:  # join
        R = join_fn_from_json(R_json, ideal)
        report = check_join(ideal, R, tuple_size_max=3, samples=budget, seed=args.seed)
    payload = {"mode": args.mode, "ideal": ideal, "report": report}
    return payload, EXIT_CLEAN if report.ok else EXIT_VIOLATION


def _cmd_reduce(args, inputs) -> Tuple[dict, int]:
    base, R_json = _load_ideal_spec(inputs["spec"])
    reduced = ReducedIdeal(base, join_fn_from_json(R_json, base))
    report = check_reduction(reduced, args.budget if args.budget is not None else 50, args.seed)
    payload = report.to_jsonable()
    if not args.dump:
        del payload["sampled_patterns"]
    return payload, EXIT_CLEAN if report.ok else EXIT_VIOLATION


def _cmd_simulate(args, inputs) -> Tuple[dict, int]:
    ideal, _R = _load_ideal_spec(inputs["spec"])
    schedule = _parse_schedule(args.schedule) if args.schedule else None
    config = SimulationConfig(
        ideal=ideal,
        window_radius=args.window,
        margin=args.margin,
        steps=args.steps,
        p=parse_fraction(args.p),
        seed=args.seed,
        schedule=schedule,
        warmup=not args.no_warmup,
    )
    trace = run(config)
    validation = trace_validate(trace, ideal)
    payload = {
        "trace": trace.to_summary_jsonable(dump=args.dump),
        "validation": validation,
    }
    return payload, EXIT_CLEAN if validation.ok else EXIT_VIOLATION


def _cmd_sparse(args, inputs) -> Tuple[dict, int]:
    g = parse_group(args.group)
    d = _parse_int_list(args.d)
    if args.window < 0:
        raise ValueError(f"--window must be nonnegative, got {args.window}")
    coloring, report = sparse_run(g, d, window_radius=args.window, m=args.m, seed=args.seed)
    payload: Dict[str, Any] = {"report": report}
    if args.dump:
        payload["coloring"] = coloring
    return payload, EXIT_CLEAN if report.ok else EXIT_VIOLATION


def _cmd_verify_infty(args, inputs) -> Tuple[dict, int]:
    g = parse_group(args.group)
    d = _parse_int_list(args.d)
    report = infty_check(g, d, args.c, node_budget=args.budget)
    payload: Dict[str, Any] = {"search": report}
    if g.spec_string() == "Z^1":
        counting = infty_counting_bound(d, args.c)
        payload["counting"] = counting
        payload["agree"] = (
            report.outcome == INCONCLUSIVE or counting["refuted"] == (report.outcome == "refuted")
        )
    if report.outcome == INCONCLUSIVE:
        return payload, EXIT_BUDGET
    if report.outcome == WITNESS:
        return payload, EXIT_VIOLATION
    return payload, EXIT_CLEAN


def _cmd_oracle_extend(args, inputs) -> Tuple[Any, int]:
    ideal, _R = _load_ideal_spec(inputs["spec"])
    phi = PartialColoring.from_json(json.loads(inputs["pattern"]), group=ideal.group)
    report = extension_oracle(
        ideal, phi, args.radius, palette_max=args.palette_max, node_budget=args.budget
    )
    return report, EXIT_BUDGET if report.outcome == INCONCLUSIVE else EXIT_CLEAN


def _cmd_extract(args, inputs) -> Tuple[dict, int]:
    phi = PartialColoring.from_json(json.loads(inputs["pattern"]))
    patterns = extract_patterns(phi, args.radius, args.min_occurrences)
    payload = {
        "shape_radius": args.radius,
        "min_occurrences": args.min_occurrences,
        "count": len(patterns),
        "patterns": patterns,
    }
    return payload, EXIT_CLEAN


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="shiftcolor",
        description="Shift-invariant coloring ideals on finitely generated groups: "
        "packing searches, membership checks, reductions, randomized window "
        "colorings, and brute-force oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, budget=None, dump=False):
        p.add_argument("--out", help="write the report to this path instead of stdout")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="deterministic RNG seed")
        if budget is not None:
            p.add_argument("--budget", type=int, default=budget, help="work budget")
        if dump:
            p.add_argument("--dump", action="store_true", help="include bulky payload sections")

    p = sub.add_parser("ball", help="enumerate a metric ball, canonically sorted")
    p.add_argument("group", help='group spec, e.g. "Z^1", "Z^2", "F_2"')
    p.add_argument("center", help='center element (JSON, or a bare reduced word for F_k)')
    p.add_argument("radius", type=int)
    common(p)
    p.set_defaults(handler=_cmd_ball)

    p = sub.add_parser("dseq", help="minimal strictly increasing packing scales")
    p.add_argument("group")
    p.add_argument("count", type=int, help="number of scales beyond the first")
    common(p, budget=64)
    p.set_defaults(handler=_cmd_dseq)

    p = sub.add_parser("annulus", help="least enclosing radius with a fully sandwiched ball")
    p.add_argument("group")
    p.add_argument("d", type=int)
    common(p, budget=64)
    p.set_defaults(handler=_cmd_annulus)

    p = sub.add_parser("check", help="ideal axioms / locality / join property checks")
    p.add_argument("spec", help="path to an ideal spec JSON file")
    p.add_argument("--mode", choices=["ideal-axioms", "local", "join"], required=True)
    common(p, seed=True, budget=None)
    p.add_argument("--budget", type=int, default=None, help="sample/enumeration budget")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("reduce", help="build the reduced kind and spot-check its soundness")
    p.add_argument("spec", help="path to an ideal spec JSON file (optionally with an R entry)")
    common(p, seed=True, budget=None, dump=True)
    p.add_argument("--budget", type=int, default=None, help="number of sampled members")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("simulate", help="randomized window coloring run + validation")
    p.add_argument("spec", help="path to an ideal spec JSON file")
    p.add_argument("--window", type=int, required=True, help="window radius")
    p.add_argument("--margin", type=int, required=True, help="margin beyond the window")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--p", default="1/2", help="support density as a fraction, e.g. 1/2")
    p.add_argument("--schedule", help="color schedule: comma-separated integers, or a JSON list "
                   "such as [[1,0],[1,1]] for pair colors (default: cycle the palette)")
    p.add_argument("--no-warmup", action="store_true", help="sample supports before full reach")
    common(p, seed=True, dump=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sparse", help="multi-scale sparse coloring on a window")
    p.add_argument("group")
    p.add_argument("--d", required=True, help="comma-separated scales, e.g. 1,3,7,15")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="number of scales actually used")
    common(p, seed=True, dump=True)
    p.set_defaults(handler=_cmd_sparse)

    p = sub.add_parser("verify-infty", help="exhaustive ball-coloring refutation search")
    p.add_argument("group")
    p.add_argument("--d", required=True, help="comma-separated scales")
    p.add_argument("--c", type=int, required=True, help="largest color allowed")
    common(p, budget=2_000_000)
    p.set_defaults(handler=_cmd_verify_infty)

    p = sub.add_parser("oracle-extend", help="backtracking extension search around a pattern")
    p.add_argument("spec", help="path to an ideal spec JSON file")
    p.add_argument("pattern", help="path to a pattern JSON file")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--palette-max", type=int, default=None)
    common(p, budget=2_000_000)
    p.set_defaults(handler=_cmd_oracle_extend)

    p = sub.add_parser("extract", help="recurring window patterns of a coloring")
    p.add_argument("pattern", help="path to a pattern JSON file")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--min-occurrences", type=int, default=1)
    common(p)
    p.set_defaults(handler=_cmd_extract)

    return parser


def _read_inputs(args) -> Dict[str, str]:
    """The text of each input file (``spec``, ``pattern``), read once: the
    manifest hashes the bytes the command then parses."""
    inputs = {}
    for key in ("pattern", "spec"):  # in the manifest's (sorted) order
        if hasattr(args, key):
            with open(getattr(args, key), "r", encoding="utf-8") as fh:
                inputs[key] = fh.read()
    return inputs


def _manifest_for(args, inputs: Dict[str, str]) -> Dict[str, Any]:
    params = {key: value for key, value in sorted(vars(args).items()) if key not in ("handler", "command", "out")}
    return build_manifest(
        command=args.command,
        params=params,
        seed=getattr(args, "seed", None),
        budget=getattr(args, "budget", None),
        spec_paths=[getattr(args, key) for key in inputs],
        spec_contents=list(inputs.values()),
        output_path=args.out,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        inputs = _read_inputs(args)
        manifest = _manifest_for(args, inputs)
        payload, code = args.handler(args, inputs)
        _emit(manifest, payload, args.out)
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, json.JSONDecodeError, ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
