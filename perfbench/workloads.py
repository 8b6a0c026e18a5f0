"""The benchmark's workloads: fixed query lists with pinned answers.

Every query carries what the mathematics says it must return: the groups
per degree, or the exit code and error kind of an honest refusal.  The
pinned integral groups below are the classical ones (spheres, torus,
projective plane, the line, plane and cylinder, and the relay exhaustion);
other coefficients follow from them by the universal coefficient theorem,
computed here independently of the program's own conversion.

Each query builds or loads its space fresh, as the command line does, so no
stage cached on one ``Exhaustion`` carries over into the next query.  All
calls into ``ctlhom`` go through module attributes at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from ctlhom import chainalg, cli, corpus
from ctlhom.sset import Attachment, Cell, Exhaustion, FiniteSimplicialSet, Simplex

Z = (1, ())
ZERO = (0, ())

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_NO_STABILIZATION = 4
EXIT_CRASH = -1

NON_STABILIZATION = "did not stabilize"
NOT_LOCALLY_FINITE = "not locally finite"


# --------------------------------------------------------------------------
# answers and expectations

@dataclass
class Answer:
    """What one query returned, in the shape of the CLI's --json documents."""

    exit: int
    doc: dict | None
    error: str = ""
    history: list | None = None
    stdout: str = ""


@dataclass(frozen=True)
class Query:
    """One query of a workload.

    ``call`` takes the space argument (a registry name or a space-file path)
    for CLI queries with a ``space``, and nothing for the others.
    ``expect`` returns None when the answer is right, else why it is not.
    """

    label: str
    call: Callable[..., Answer]
    expect: Callable[[Answer], str | None]
    space: str | None = None
    file_only: bool = False
    expected_exit: int = EXIT_OK


def _groups_of(doc: dict) -> dict:
    return {int(n): (g["free_rank"], tuple(g["torsion"]))
            for n, g in doc["groups"].items()}


def _render(groups: dict) -> str:
    def one(g):
        rank, torsion = g
        parts = [f"Z/{t}" for t in torsion] + (["Z"] * rank)
        return "+".join(parts) or "0"
    return ", ".join(one(groups[n]) for n in sorted(groups))


def _exit_problem(answer: Answer, code: int) -> str | None:
    if answer.exit == code:
        return None
    first = answer.error.strip().splitlines()[:1]
    return f"exit {answer.exit}, expected {code}" + (f" ({first[0]})" if first else "")


def groups_are(expected: dict):
    def check(answer: Answer):
        problem = _exit_problem(answer, EXIT_OK)
        if problem:
            return problem
        got = _groups_of(answer.doc)
        if got != expected:
            return f"groups {_render(got)}, expected {_render(expected)}"
        return None
    return check


def refused(code: int, kind: str, history: list | None = None):
    def check(answer: Answer):
        problem = _exit_problem(answer, code)
        if problem:
            return problem
        if kind not in answer.error:
            return f"error {answer.error.strip()!r} is not {kind!r}"
        if history is not None and answer.history != history:
            return f"history {answer.history}, expected {history}"
        return None
    return check


def checked(locally_finite: bool, kind: str):
    def check(answer: Answer):
        problem = _exit_problem(answer, EXIT_OK if locally_finite else EXIT_VALIDATION)
        if problem:
            return problem
        doc = answer.doc
        if (doc["valid"], doc["locally_finite"], doc["kind"]) != (True, locally_finite, kind):
            return (f"check says valid={doc['valid']} locally_finite={doc['locally_finite']}"
                    f" kind={doc['kind']}")
        return None
    return check


def _det(m: list) -> int:
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def pairs_unimodularly(rank: int):
    """Both groups free of the given rank and a pairing matrix of
    determinant +-1 (Poincare duality on these orientable manifolds)."""
    def check(answer: Answer):
        problem = _exit_problem(answer, EXIT_OK)
        if problem:
            return problem
        doc = answer.doc
        for key in ("bm_group", "cc_group"):
            got = (doc[key]["free_rank"], tuple(doc[key]["torsion"]))
            if got != (rank, ()):
                return f"{key} {_render({0: got})}, expected Z^{rank}"
        matrix = [list(row) for row in doc["matrix"]]
        if len(matrix) != rank or abs(_det(matrix)) != 1:
            return f"pairing matrix {matrix} is not unimodular of size {rank}"
        return None
    return check


def lists_spaces(kinds: dict):
    def check(answer: Answer):
        problem = _exit_problem(answer, EXIT_OK)
        if problem:
            return problem
        got = {e["name"]: e["kind"] for e in answer.doc["spaces"]}
        return None if got == kinds else f"spaces {got}, expected {kinds}"
    return check


def laws_hold(count: int, min_cases: int):
    def check(answer: Answer):
        problem = _exit_problem(answer, EXIT_OK)
        if problem:
            return problem
        results = answer.doc["results"]
        bad = [r["name"] for r in results if not r["ok"]]
        cases = sum(r["cases"] for r in results)
        if not answer.doc["ok"] or bad or len(results) != count or cases < min_cases:
            return f"laws: {len(results)} results, {cases} cases, failing {bad}"
        return None
    return check


# --------------------------------------------------------------------------
# the pinned mathematics

def _sphere_groups(n: int) -> dict:
    return {k: (Z if k in (0, n) else ZERO) for k in range(n + 1)}


def _simplex_groups(n: int) -> dict:
    return {k: (Z if k == 0 else ZERO) for k in range(n + 1)}


# finite spaces: (integral homology, integral cohomology) by degree
FINITE = {
    "point": ({0: Z}, {0: Z}),
    "circle": ({0: Z, 1: Z}, {0: Z, 1: Z}),
    "torus": ({0: Z, 1: (2, ()), 2: Z}, {0: Z, 1: (2, ()), 2: Z}),
    "rp2": ({0: Z, 1: (0, (2,)), 2: ZERO}, {0: Z, 1: ZERO, 2: (0, (2,))}),
}
for _n in (2, 3, 6, 7):
    FINITE[f"sphere({_n})"] = (_sphere_groups(_n), _sphere_groups(_n))
for _n in (3, 7):
    FINITE[f"delta({_n})"] = (_simplex_groups(_n), _simplex_groups(_n))

# exhaustions: the four integral theories by degree
EXHAUSTIONS = {
    "ray": {"H": {0: Z, 1: ZERO}, "H_BM": {0: ZERO, 1: ZERO},
            "H_co": {0: Z, 1: ZERO}, "H_c": {0: ZERO, 1: ZERO}},
    "line": {"H": {0: Z, 1: ZERO}, "H_BM": {0: ZERO, 1: Z},
             "H_co": {0: Z, 1: ZERO}, "H_c": {0: ZERO, 1: Z}},
    "plane": {"H": {0: Z, 1: ZERO, 2: ZERO}, "H_BM": {0: ZERO, 1: ZERO, 2: Z},
              "H_co": {0: Z, 1: ZERO, 2: ZERO}, "H_c": {0: ZERO, 1: ZERO, 2: Z}},
    # S^1 x R: Poincare duality gives H_BM_k = H^{2-k} and H_c^k = H_{2-k}
    "cylinder": {"H": {0: Z, 1: Z, 2: ZERO}, "H_BM": {0: ZERO, 1: Z, 2: Z},
                 "H_co": {0: Z, 1: Z, 2: ZERO}, "H_c": {0: ZERO, 1: Z, 2: Z}},
    # every stage has H_1 = Z but every transition is zero (see relay())
    "relay": {"H": {0: Z, 1: ZERO, 2: ZERO}, "H_BM": {0: ZERO, 1: ZERO, 2: ZERO},
              "H_co": {0: Z, 1: ZERO, 2: ZERO}, "H_c": {0: ZERO, 1: ZERO, 2: ZERO}},
}

COHOMOLOGICAL = {"H": False, "H_BM": False, "H_co": True, "H_c": True}


def integral(theory: str, space: str) -> dict:
    if space in FINITE:
        homology, cohomology = FINITE[space]
        return cohomology if COHOMOLOGICAL[theory] else homology
    return EXHAUSTIONS[space][theory]


def expected_groups(theory: str, space: str, coeff: str = "z") -> dict:
    """Groups with coefficients z, q or z/p (p prime), by the universal
    coefficient theorem: G_n (x) k plus Tor(G_{n-1}, k) for homology and
    Tor(G_{n+1}, k) for cohomology."""
    groups = integral(theory, space)
    if coeff == "z":
        return groups
    if coeff == "q":
        return {n: (rank, ()) for n, (rank, _) in groups.items()}
    p = int(coeff.split("/")[1])
    shift = 1 if COHOMOLOGICAL[theory] else -1
    out = {}
    for n, (rank, torsion) in groups.items():
        neighbor = groups.get(n + shift, ZERO)[1]
        out[n] = (rank + sum(1 for e in torsion + neighbor if e % p == 0), ())
    return out


# the Borel-Moore groups of balloon_ray's stages: one new loop per stage
BALLOON_DEPTH = 32
BALLOON_HISTORY = [(1, ["0", "Z"] + [f"Z^{i}" for i in range(2, BALLOON_DEPTH + 1)])]


# --------------------------------------------------------------------------
# spaces built by the benchmark

def relay() -> Exhaustion:
    """A base loop L0, and a slab with an in-loop, an out-loop, a segment
    between them and a 2-cell filling the in-loop.

    Stage i is a chain of filled loops ending in one open loop, so every
    stage has H_1 = Z, but each transition sends the open loop into a filled
    one: the colimit of H_1 is 0, and so is the limit of H^1.
    """
    o = Simplex((), Cell(0, "o"))
    pin = Simplex((), Cell(0, "pin"))
    pout = Simplex((), Cell(0, "pout"))
    flat = Simplex((0,), Cell(0, "pin"))  # the degenerate edge at pin
    base = FiniteSimplicialSet({0: ["o"], 1: ["l0"]}, {(1, "l0"): (o, o)},
                               name="relay-base")
    slab = FiniteSimplicialSet(
        {0: ["pin", "pout"], 1: ["lin", "lout", "seg"], 2: ["fill"]},
        {
            (1, "lin"): (pin, pin),
            (1, "lout"): (pout, pout),
            (1, "seg"): (pout, pin),
            (2, "fill"): (flat, Simplex((), Cell(1, "lin")), flat),
        },
        name="relay-slab",
    )
    attachment = Attachment(base_ids=("o", "l0"), slab_in_ids=("pin", "lin"),
                            slab_out_ids=("pout", "lout"))
    return Exhaustion(base, slab, [attachment], name="relay")


def _make_space(name: str):
    if name == "relay":
        return relay()
    if name in corpus.FIXTURES:
        return corpus.FIXTURES[name][0]()
    return corpus.build(name)


def write_space_files(queries, directory: str):
    """Write a ctlhom-space file for every space a CLI query may load."""
    for name in sorted({q.space for q in queries if q.space}):
        corpus.save_space(_make_space(name), space_path(directory, name))


def space_path(directory: str, name: str) -> str:
    return os.path.join(directory, name.replace("(", "_").replace(")", "") + ".json")


# --------------------------------------------------------------------------
# calling the program

def run_cli(argv: list) -> Answer:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    return Answer(code, json.loads(text) if text else None, err.getvalue(), stdout=text)


def _group_doc(g) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def run_driver(driver: str, space: str, coeff: str = "z", **kwargs) -> Answer:
    """One library driver call on a freshly built space."""
    try:
        if driver == "pairing_matrix":
            result = chainalg.pairing_matrix(_make_space(space), **kwargs)
            doc = {"bm_group": _group_doc(result.bm_group),
                   "cc_group": _group_doc(result.cc_group),
                   "matrix": [list(row) for row in result.matrix]}
        else:
            result = getattr(chainalg, driver)(
                _make_space(space), chainalg.parse_coefficients(coeff), **kwargs)
            doc = {"groups": {str(n): _group_doc(g) for n, g in result.groups.items()}}
    except chainalg.NonStabilizationError as exc:
        return Answer(EXIT_NO_STABILIZATION, None, str(exc), history=exc.history)
    return Answer(EXIT_OK, doc)


# --------------------------------------------------------------------------
# the workloads

COMMANDS = {"homology": "H", "bm-homology": "H_BM",
            "cohomology": "H_co", "cohomology-c": "H_c"}
DRIVERS = {"homology": "H", "bm_homology": "H_BM",
           "cohomology": "H_co", "cohomology_c": "H_c"}

REGISTRY = ["point", "circle", "torus", "rp2", "ray", "line", "plane", "cylinder"]
FINITE_CLI = ["point", "circle", "torus", "rp2", "delta(3)", "sphere(2)", "sphere(3)"]


def _cli_query(label_args: list, expect, space=None, file_only=False,
               expected_exit=EXIT_OK) -> Query:
    label = " ".join(label_args)

    def call(space_arg=None):
        argv = [space_arg if a == space else a for a in label_args]
        return run_cli(argv)

    return Query(label, call, expect, space=space, file_only=file_only,
                 expected_exit=expected_exit)


def corpus_cli() -> list:
    """Every registry space through every CLI command, with --json."""
    queries = []
    spaces = REGISTRY + ["delta(3)", "sphere(2)", "sphere(3)"]
    for space in spaces:
        for command, theory in COMMANDS.items():
            queries.append(_cli_query([command, space, "--json"],
                                      groups_are(expected_groups(theory, space)), space))
    for coeff in ("z/2", "q"):
        for space in FINITE_CLI:
            for command, theory in COMMANDS.items():
                queries.append(_cli_query(
                    [command, space, "--coeff", coeff, "--json"],
                    groups_are(expected_groups(theory, space, coeff)), space))
    for space in spaces:
        kind = "finite" if space in FINITE else "exhaustion"
        queries.append(_cli_query(["check", space, "--json"], checked(True, kind), space))
    for space, degree, rank in (("line", 1, 1), ("plane", 2, 1), ("torus", 1, 2)):
        queries.append(_cli_query(["pairing", space, "--degree", str(degree), "--json"],
                                  pairs_unimodularly(rank), space))
    kinds = {name: ("finite" if name in FINITE else "exhaustion") for name in REGISTRY}
    kinds.update({"delta(n)": "finite", "sphere(n)": "finite"})
    queries.append(_cli_query(["spaces", "--json"], lists_spaces(kinds)))
    queries.append(_cli_query(["laws", "--json"], laws_hold(9, 40000)))
    queries.append(_cli_query(["bm-homology", "balloon_ray", "--json"],
                              refused(EXIT_NO_STABILIZATION, NON_STABILIZATION),
                              "balloon_ray", file_only=True,
                              expected_exit=EXIT_NO_STABILIZATION))
    queries.append(_cli_query(["homology", "infinite_star", "--json"],
                              refused(EXIT_VALIDATION, NOT_LOCALLY_FINITE),
                              "infinite_star", file_only=True,
                              expected_exit=EXIT_VALIDATION))
    queries.append(_cli_query(["check", "infinite_star", "--json"],
                              checked(False, "exhaustion"), "infinite_star",
                              file_only=True, expected_exit=EXIT_VALIDATION))
    return queries


def _driver_query(driver: str, space: str, coeff: str = "z", expect=None,
                  expected_exit=EXIT_OK, **kwargs) -> Query:
    extra = "".join(f" {k}={v}" for k, v in kwargs.items())
    label = f"{driver} {space}" + (f" coeff={coeff}" if coeff != "z" else "") + extra
    if expect is None and driver == "pairing_matrix":
        expect = pairs_unimodularly(1)
    elif expect is None:
        expect = groups_are(expected_groups(DRIVERS[driver], space, coeff))
    return Query(label, lambda: run_driver(driver, space, coeff, **kwargs), expect,
                 expected_exit=expected_exit)


def exhaustion_deep() -> list:
    """The limit/colimit engine at its largest, through the library drivers."""
    queries = []
    for window in (3, 6):
        queries.append(_driver_query("bm_homology", "cylinder", window=window))
        queries.append(_driver_query("cohomology_c", "cylinder", window=window))
    queries.append(_driver_query("homology", "cylinder"))
    queries.append(_driver_query("cohomology", "cylinder"))
    for driver in DRIVERS:
        queries.append(_driver_query(driver, "plane"))
    queries.append(_driver_query("pairing_matrix", "cylinder", degree=1))
    queries.append(_driver_query("pairing_matrix", "plane", degree=2))
    queries.append(_driver_query(
        "bm_homology", "balloon_ray", max_depth=BALLOON_DEPTH,
        expect=refused(EXIT_NO_STABILIZATION, NON_STABILIZATION, BALLOON_HISTORY),
        expected_exit=EXIT_NO_STABILIZATION))
    for driver in DRIVERS:
        queries.append(_driver_query(driver, "relay"))
    return queries


def finite_large() -> list:
    """One big Smith normal form per degree, on finite complexes only."""
    return [
        _driver_query("homology", "sphere(6)"),
        _driver_query("cohomology", "sphere(6)", "z/2"),
        _driver_query("homology", "sphere(7)", "z/3"),
        _driver_query("cohomology", "sphere(7)"),
        _driver_query("homology", "delta(7)", "z/2"),
    ]


# the spans each workload fires; every other traced span reads zero on it
_LIBRARY_SPANS = {
    "snf.smith_normal_form", "snf.matmul", "chainalg.present_homology",
    "chainalg.convert_group", "chainalg.homology", "chainalg.cohomology",
    "sset.FiniteSimplicialSet", "corpus.build",
}
_EXHAUSTION_SPANS = _LIBRARY_SPANS | {
    "chainalg.is_transition_isomorphism", "chainalg.bm_homology",
    "chainalg.cohomology_c", "chainalg.pairing_matrix",
    "sset.Exhaustion.truncate", "sset.is_locally_finite",
}
SPANS = {
    "corpus-cli": _EXHAUSTION_SPANS | {"corpus.load_space", "corpus.save_space",
                                       "cli.main", "laws.run_all"},
    "exhaustion-deep": _EXHAUSTION_SPANS,
    "finite-large": _LIBRARY_SPANS,
}

WORKLOADS = {
    "corpus-cli": corpus_cli,
    "exhaustion-deep": exhaustion_deep,
    "finite-large": finite_large,
}
