"""The controlled-set validators and the law suite, pinned against
``tests/controlled_golden.json``.

It holds the ``repr`` of ``validate_structure`` for the minimal, maximal
and every generated structure on carriers of size 0 to 3 and for the two
structures on the naturals; the ``repr`` of ``validate_map`` for every case
the ``homset-structure-independence`` law enumerates and for the maps of
the naturals in acceptance criterion 3/8; and the ``laws --json`` output at
``--max-carrier`` 0 to 3.  A change to how the validators decide must leave
every one of these as it is.  ``snapshot`` gives the current values in the
file's shape.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ctlhom import cli
from ctlhom.ctlset import (
    ConstantAssignment,
    ControlledMap,
    ShiftAssignment,
    all_set_maps,
    finite_carrier,
    generated_ctl,
    max_ctl,
    min_ctl,
    naturals,
    validate_map,
    validate_structure,
)
from ctlhom.laws import _subset_families

GOLDEN = json.loads((Path(__file__).parent / "controlled_golden.json").read_text())


def structures(size: int) -> dict:
    """Label -> structure, in the order the law suite enumerates them."""
    carrier = finite_carrier(range(size))
    out = {f"min({size})": min_ctl(carrier), f"max({size})": max_ctl(carrier)}
    for family in _subset_families(size):
        out[f"generated({size}, {family})"] = generated_ctl(carrier, family)
    return out


def structure_reports() -> dict:
    out = {}
    for size in range(4):
        for label, X in structures(size).items():
            out[label] = repr(validate_structure(X))
    for label, X in (("min(naturals)", min_ctl(naturals())),
                     ("max(naturals)", max_ctl(naturals()))):
        out[label] = repr(validate_structure(X))
    return out


def map_reports() -> dict:
    """Per pair of structures on carriers of size <= 2, the report of every
    set map between them, in ``all_set_maps`` order; then the maps of the
    naturals."""
    out = {}
    for a in range(3):
        for b in range(3):
            tables = list(all_set_maps(finite_carrier(range(a)), finite_carrier(range(b))))
            for x_label, X in structures(a).items():
                for y_label, Y in structures(b).items():
                    out[f"{x_label} -> {y_label}"] = [
                        repr(validate_map(ControlledMap(X, Y, t))) for t in tables
                    ]
    N = naturals()
    for label, source, target, assignment in (
        ("constant 0: max(naturals) -> max(naturals)", max_ctl(N), max_ctl(N),
         ConstantAssignment(0)),
        ("shift 1: max(naturals) -> min(naturals)", max_ctl(N), min_ctl(N),
         ShiftAssignment(1)),
        ("shift 1: max(naturals) -> max(naturals)", max_ctl(N), max_ctl(N),
         ShiftAssignment(1)),
        ("shift 1: min(naturals) -> min(naturals)", min_ctl(N), min_ctl(N),
         ShiftAssignment(1)),
    ):
        out[label] = repr(validate_map(ControlledMap(source, target, assignment)))
    return out


def laws_json() -> dict:
    out = {}
    for max_carrier in range(4):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["laws", "--max-carrier", str(max_carrier), "--json"])
        out[f"max-carrier={max_carrier}"] = {"exit": code, "stdout": stdout.getvalue()}
    return out


SECTIONS = {
    "validate_structure": structure_reports,
    "validate_map": map_reports,
    "laws": laws_json,
}


def snapshot() -> dict:
    return {name: build() for name, build in SECTIONS.items()}


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_controlled_reports_are_pinned(section):
    assert SECTIONS[section]() == GOLDEN[section]
