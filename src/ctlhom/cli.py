"""Command line interface.

Exit codes: 0 success, 1 output closed early (a reader such as ``head``
closed the pipe), 2 usage errors, 3 validation failures (bad space files,
spaces that are not locally finite, unknown names), 4 a theory that does
not stabilize within the probed depth, 5 a law counterexample.

All --json output is deterministic: keys are sorted and no environmental
data is embedded, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .chainalg import (
    CoefficientError,
    NonStabilizationError,
    TheoryResult,
    pairing_matrix,
    parse_coefficients,
    render_group,
    THEORY_DRIVERS,
)
from .corpus import (
    PARAMETRIC,
    SPACES,
    SpaceFormatError,
    UnknownSpaceError,
    resolve_space,
)
from .sset import (
    Exhaustion,
    PresentationError,
    SimplicialError,
    is_locally_finite,
)
from .snf import MatrixError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_OUTPUT_CLOSED = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NO_STABILIZATION = 4
EXIT_LAW_FAILURE = 5

_COMMAND_THEORIES = {
    "homology": "H",
    "bm-homology": "H_BM",
    "cohomology": "H_co",
    "cohomology-c": "H_c",
}


def _env_max_depth(default: int = 12) -> int:
    raw = os.environ.get("CTLHOM_MAX_DEPTH")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise CoefficientError(f"CTLHOM_MAX_DEPTH must be an integer, got {raw!r}")
    if value < 1:
        raise CoefficientError("CTLHOM_MAX_DEPTH must be at least 1")
    return value


def _check_bounds(args):
    """Out-of-range numeric flags are usage errors, like a bad
    CTLHOM_MAX_DEPTH."""
    for flag, low in (("window", 1), ("max_depth", 1), ("degree", 0),
                      ("max_dim", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            raise CoefficientError(
                f"--{flag.replace('_', '-')} must be at least {low}")


def _emit(doc: dict, as_json: bool, lines):
    if as_json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _group_json(g) -> dict:
    return {
        "free_rank": g.free_rank,
        "torsion": list(g.torsion),
    }


def _result_doc(command: str, result: TheoryResult) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "theory": result.theory,
        "space": result.space,
        "coefficients": result.coefficients.label,
        "groups": {
            str(n): dict(_group_json(g), pretty=render_group(g, result.coefficients))
            for n, g in result.groups.items()
        },
        "caveats": list(result.caveats),
    }
    if result.stabilized_at is not None:
        doc["stabilization"] = {
            "window": result.window,
            "depth_used": result.depth_used,
            "stabilized_at": {str(n): d for n, d in result.stabilized_at.items()},
        }
    else:
        doc["stabilization"] = None
    return doc


def _result_lines(result: TheoryResult):
    yield f"{result.theory}({result.space}; {result.coefficients.label})"
    for n in sorted(result.groups):
        yield f"  degree {n}: {render_group(result.groups[n], result.coefficients)}"
    if result.stabilized_at is not None:
        depths = ", ".join(
            f"{n} at depth {d}" for n, d in sorted(result.stabilized_at.items())
        )
        yield f"  stabilized (window {result.window}): {depths}"
    for caveat in result.caveats:
        yield f"  note: {caveat}"


def _add_theory_parser(sub, command: str, help_text: str):
    p = sub.add_parser(command, help=help_text)
    p.add_argument("space", help="built-in space name or path to a space file")
    p.add_argument("--coeff", default="z", metavar="z|z/M|q",
                   help="coefficients (default z)")
    p.add_argument("--max-dim", type=int, default=None,
                   help="top degree to report (default: the space's dimension)")
    p.add_argument("--window", type=int, default=3,
                   help="stages of stable transitions required (default 3)")
    p.add_argument("--max-depth", type=int, default=None,
                   help="deepest stage to probe (default 12 or CTLHOM_MAX_DEPTH)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctlhom",
        description="(co)homology of finite and locally finite simplicial complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spaces", help="list the built-in spaces")
    p.add_argument("--json", action="store_true")

    _add_theory_parser(sub, "homology", "ordinary homology")
    _add_theory_parser(sub, "bm-homology", "Borel-Moore homology")
    _add_theory_parser(sub, "cohomology", "ordinary cohomology")
    _add_theory_parser(sub, "cohomology-c", "compactly supported cohomology")

    p = sub.add_parser("check", help="validate a space and certify local finiteness")
    p.add_argument("space")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("laws", help="run the exhaustive finite-model checks")
    p.add_argument("--max-carrier", type=int, default=3,
                   help="largest finite carrier to enumerate (default 3)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("pairing", help="pair compact-support classes with Borel-Moore classes")
    p.add_argument("space")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--json", action="store_true")

    return parser


def _cmd_spaces(args) -> int:
    entries = []
    for name in sorted(SPACES):
        builder, description = SPACES[name]
        kind = "exhaustion" if isinstance(builder(), Exhaustion) else "finite"
        entries.append({"name": name, "description": description, "kind": kind})
    for name in sorted(PARAMETRIC):
        _, description = PARAMETRIC[name]
        entries.append({"name": f"{name}(n)", "description": description,
                        "kind": "finite"})
    doc = {"schema_version": SCHEMA_VERSION, "command": "spaces", "spaces": entries}
    width = max(len(e["name"]) for e in entries)
    _emit(doc, args.json, (
        f"{e['name']:<{width}}  [{e['kind']}]  {e['description']}" for e in entries
    ))
    return EXIT_OK


def _cmd_theory(args) -> int:
    theory = _COMMAND_THEORIES[args.command]
    coeff = parse_coefficients(args.coeff)
    max_depth = args.max_depth if args.max_depth is not None else _env_max_depth()
    space = resolve_space(args.space)
    result = THEORY_DRIVERS[theory](
        space, coeff,
        max_degree=args.max_dim,
        window=args.window,
        max_depth=max_depth,
    )
    _emit(_result_doc(args.command, result), args.json, _result_lines(result))
    return EXIT_OK


def _cmd_check(args) -> int:
    space = resolve_space(args.space)
    kind = "exhaustion" if isinstance(space, Exhaustion) else "finite"
    report = is_locally_finite(space)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "space": getattr(space, "name", None) or args.space,
        "kind": kind,
        "valid": True,
        "locally_finite": report.ok,
        "max_star": report.max_star,
        "witness": report.witness,
        "notes": list(report.notes),
    }
    lines = [
        f"space: {doc['space']} [{kind}]",
        "presentation: valid",
        f"locally finite: {'yes' if report.ok else 'NO'}",
    ]
    if report.max_star is not None:
        lines.append(f"largest vertex star: {report.max_star}")
    if report.witness:
        lines.append(f"witness: {report.witness}")
    lines.extend(f"note: {n}" for n in report.notes)
    _emit(doc, args.json, lines)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _cmd_laws(args) -> int:
    from . import laws

    if not 0 <= args.max_carrier <= laws.MAX_CARRIER:
        raise CoefficientError(f"--max-carrier must be between 0 and {laws.MAX_CARRIER}")
    results = laws.run_all(args.max_carrier)
    ok = all(r.ok for r in results)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "laws",
        "max_carrier": args.max_carrier,
        "ok": ok,
        "results": [
            {
                "name": r.name,
                "ok": r.ok,
                "cases": r.cases,
                "counterexample": r.counterexample,
                "note": r.note,
            }
            for r in results
        ],
    }
    lines = []
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        lines.append(f"{status} {r.name:<34} {r.cases} cases")
        if r.counterexample:
            lines.append(f"     counterexample: {r.counterexample}")
    lines.append("all laws hold" if ok else "LAW FAILURE")
    _emit(doc, args.json, lines)
    return EXIT_OK if ok else EXIT_LAW_FAILURE


def _cmd_pairing(args) -> int:
    max_depth = args.max_depth if args.max_depth is not None else _env_max_depth()
    space = resolve_space(args.space)
    result = pairing_matrix(space, args.degree, window=args.window,
                            max_depth=max_depth)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "pairing",
        "space": getattr(space, "name", None) or args.space,
        "degree": result.degree,
        "depth": result.depth,
        "bm_group": dict(_group_json(result.bm_group),
                         pretty=render_group(result.bm_group)),
        "cc_group": dict(_group_json(result.cc_group),
                         pretty=render_group(result.cc_group)),
        "matrix": [list(row) for row in result.matrix],
    }
    lines = [
        f"pairing in degree {result.degree}"
        + (f" (stage {result.depth})" if result.depth is not None else ""),
        f"  H_BM: {render_group(result.bm_group)}",
        f"  H_c:  {render_group(result.cc_group)}",
    ]
    if result.matrix:
        lines.append("  matrix (rows: compact-support classes):")
        lines.extend(f"    {list(row)}" for row in result.matrix)
    else:
        lines.append("  matrix: empty (one side is trivial)")
    _emit(doc, args.json, lines)
    return EXIT_OK


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process, built on the first call to ``main``, not at
    import; every parse starts from a fresh namespace, so no value carries
    over from one call to the next."""
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(parser, args)
        # a closed pipe fails here, not in the interpreter's final flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python's documented recipe: point stdout at devnull so that the
        # flush at exit writes nothing and raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OUTPUT_CLOSED


def _loaded_control_errors() -> tuple:
    """``(ctlset.ControlError,)`` once that module is loaded, else ``()``: none
    can be raised before, and a refusal should not load the layer to name it."""
    module = sys.modules.get(f"{__package__}.ctlset")
    return () if module is None else (module.ControlError,)


def _run(parser, args) -> int:
    try:
        _check_bounds(args)
        if args.command == "spaces":
            return _cmd_spaces(args)
        if args.command in _COMMAND_THEORIES:
            return _cmd_theory(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "laws":
            return _cmd_laws(args)
        if args.command == "pairing":
            return _cmd_pairing(args)
        parser.error(f"unknown command {args.command!r}")
    except NonStabilizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_STABILIZATION
    except (UnknownSpaceError, SpaceFormatError, PresentationError,
            SimplicialError, MatrixError, *_loaded_control_errors()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CoefficientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
