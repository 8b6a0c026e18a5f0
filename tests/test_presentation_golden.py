"""The exhaustion drivers' final presentations and refusal histories,
pinned against ``tests/presentation_golden.json``.

The generators and the reduction transforms a presentation keeps are a
choice of basis: they feed the pairing and every transition check, so any
change to how the stage presentations are reduced must leave them as they
are.  ``snapshot`` gives the current values in the file's shape.
"""

import json
from pathlib import Path

import pytest

from ctlhom import chainalg, corpus
from ctlhom.corpus import balloon_ray
from exhaustions import relay

GOLDEN = json.loads((Path(__file__).parent / "presentation_golden.json").read_text())

DRIVERS = {"H": "homology", "H_BM": "bm_homology",
           "H_co": "cohomology", "H_c": "cohomology_c"}
STABLE_SPACES = ("ray", "line", "plane", "cylinder")
COEFFICIENTS = ("z", "z/2")
REFUSING = {"balloon_ray": balloon_ray, "relay": relay}


def _sparse(m) -> list:
    return [m.rows, m.cols,
            [[i, j, x] for i, row in enumerate(m.entries) for j, x in sorted(row.items())]]


def final_presentations(theory: str, space: str, coeff: str) -> dict:
    """The presentations a driver converts its groups from, by degree: what
    its stage system presents last; under z/2 the result does not keep them,
    so they are read on the way in."""
    seen = {}
    present = chainalg._StageSystem.present

    def spy(*args, **kwargs):
        seen["last"] = present(*args, **kwargs)
        return seen["last"]

    chainalg._StageSystem.present = spy
    try:
        result = getattr(chainalg, DRIVERS[theory])(
            corpus.build(space), chainalg.parse_coefficients(coeff))
    finally:
        chainalg._StageSystem.present = present
    degrees = {
        str(n): {"orders": list(p.orders),
                 "generators": [list(g) for g in p.generators],
                 "v_inv": _sparse(p._v_inv),
                 "u_y": _sparse(p._u_y)}
        for n, p in sorted(seen["last"].items())
    }
    return {"depth_used": result.depth_used, "degrees": degrees}


def refusal(theory: str, space: str) -> dict:
    try:
        result = getattr(chainalg, DRIVERS[theory])(REFUSING[space](), max_depth=12)
    except chainalg.NonStabilizationError as exc:
        return {"message": str(exc), "degree": exc.degree,
                "history": [[n, groups] for n, groups in exc.history]}
    return {"groups": {str(n): chainalg.render_group(g) for n, g in result.groups.items()}}


def snapshot() -> dict:
    return {
        "presentations": {
            f"{theory} {space} {coeff}": final_presentations(theory, space, coeff)
            for theory in DRIVERS for space in STABLE_SPACES for coeff in COEFFICIENTS
        },
        "refusals": {f"{theory} {space}": refusal(theory, space)
                     for theory in DRIVERS for space in REFUSING},
    }


@pytest.mark.parametrize("key", sorted(GOLDEN["presentations"]))
def test_final_presentations_are_pinned(key):
    theory, space, coeff = key.split()
    assert final_presentations(theory, space, coeff) == GOLDEN["presentations"][key]


@pytest.mark.parametrize("key", sorted(GOLDEN["refusals"]))
def test_refusal_histories_are_pinned(key):
    theory, space = key.split()
    assert refusal(theory, space) == GOLDEN["refusals"][key]
