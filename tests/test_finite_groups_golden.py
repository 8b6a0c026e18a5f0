"""The groups of finite complexes, and the CLI documents that report them,
pinned against ``tests/finite_groups_golden.json``.

A finite complex's groups are read off the invariant factors of its
boundary matrices, whichever reduction finds them.  Every finite corpus
space, ``sphere(2..8)`` and ``delta(2..7)``, under all four theories and
coefficients z, q, z/2 and z/3, must keep its groups; the ``--json`` bytes
of the theory commands on the smaller of them must stay as they are, and
so must every basis that the integral results of the smallest keep: their
generators and reduction transforms, read after the result is made.
``snapshot`` gives the current values in the file's shape.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ctlhom import cli, corpus
from ctlhom.chainalg import THEORY_DRIVERS, parse_coefficients
from ctlhom.sset import FiniteSimplicialSet

GOLDEN = json.loads((Path(__file__).parent / "finite_groups_golden.json").read_text())

COEFFICIENTS = ("z", "q", "z/2", "z/3")
COMMANDS = ("homology", "bm-homology", "cohomology", "cohomology-c")
SPACES = ([name for name, (build, _) in corpus.SPACES.items()
           if isinstance(build(), FiniteSimplicialSet)]
          + [f"sphere({n})" for n in range(2, 9)]
          + [f"delta({n})" for n in range(2, 8)])
CLI_SPACES = [s for s in SPACES if s not in ("sphere(7)", "sphere(8)", "delta(7)")]
PRESENTED = ["point", "circle", "torus", "rp2", "sphere(2)", "sphere(3)", "delta(2)",
             "delta(3)"]


def groups(space: str, theory: str, coeff: str) -> dict:
    result = THEORY_DRIVERS[theory](corpus.build(space), parse_coefficients(coeff))
    return {str(n): [g.free_rank, list(g.torsion)] for n, g in result.groups.items()}


def _sparse(m) -> list:
    return [m.rows, m.cols,
            [[i, j, x] for i, row in enumerate(m.entries) for j, x in sorted(row.items())]]


def presentations(space: str, theory: str) -> dict:
    result = THEORY_DRIVERS[theory](corpus.build(space))
    return {str(n): {"group": [p.group.free_rank, list(p.group.torsion)],
                     "orders": list(p.orders),
                     "generators": [list(g) for g in p.generators],
                     "basis_size": p.basis_size,
                     "v_inv": _sparse(p._v_inv),
                     "rank": p._rank,
                     "u_y": _sparse(p._u_y),
                     "kept": list(p._kept)}
            for n, p in result.presentations.items()}


def cli_json(argv: list) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _key(*parts) -> str:
    return " ".join(parts)


def snapshot() -> dict:
    return {
        "groups": {_key(space, theory, coeff): groups(space, theory, coeff)
                   for space in SPACES for theory in THEORY_DRIVERS
                   for coeff in COEFFICIENTS},
        "cli": {_key(command, space, coeff): cli_json([command, space, "--coeff", coeff,
                                                       "--json"])
                for space in CLI_SPACES for command in COMMANDS
                for coeff in COEFFICIENTS},
        "presentations": {_key(space, theory): presentations(space, theory)
                          for space in PRESENTED for theory in THEORY_DRIVERS},
    }


@pytest.mark.parametrize("space", SPACES)
def test_groups_are_pinned(space):
    for theory in THEORY_DRIVERS:
        for coeff in COEFFICIENTS:
            assert groups(space, theory, coeff) \
                == GOLDEN["groups"][_key(space, theory, coeff)], (theory, coeff)


@pytest.mark.parametrize("space", CLI_SPACES)
def test_cli_documents_are_pinned(space):
    for command in COMMANDS:
        for coeff in COEFFICIENTS:
            assert cli_json([command, space, "--coeff", coeff, "--json"]) \
                == GOLDEN["cli"][_key(command, space, coeff)], (command, coeff)


@pytest.mark.parametrize("space", PRESENTED)
def test_presentations_are_pinned(space):
    for theory in THEORY_DRIVERS:
        assert presentations(space, theory) == GOLDEN["presentations"][_key(space, theory)], \
            theory


def test_the_golden_covers_every_space_theory_and_coefficient():
    assert len(GOLDEN["groups"]) == len(SPACES) * len(THEORY_DRIVERS) * len(COEFFICIENTS)
    assert len(GOLDEN["cli"]) == len(CLI_SPACES) * len(COMMANDS) * len(COEFFICIENTS)
    assert len(GOLDEN["presentations"]) == len(PRESENTED) * len(THEORY_DRIVERS)
