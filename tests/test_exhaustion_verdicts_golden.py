"""The verdicts on exhaustions, pinned against
``tests/exhaustion_verdicts_golden.json``.

It holds the ``check --json`` document and exit code of every built-in
exhaustion and of every exhaustion the tests build (``tests/exhaustions.py``,
with the sources and targets of its maps); the ``EquivalenceReport`` of every
fixture map; and whether a family is controlled: on every locally finite
exhaustion there, all cells, the cells of each slab dimension and each single
slab cell per copy, and on ``infinite_star`` the families the other tests
ask about.  A change to how local finiteness, properness or control is
decided must leave every one of these as it is.  ``snapshot`` gives the
current values in the file's shape.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from ctlhom import cli
from ctlhom.corpus import (
    balloon_ray,
    cylinder,
    cylinder_projection,
    fold_line_to_ray,
    identity_on,
    infinite_star,
    line,
    plane,
    ray,
    save_space,
)
from ctlhom.maps import (
    AllCellsFamily,
    DegeneracyTowerFamily,
    FiniteFamily,
    PerSlabFamily,
    family_is_controlled,
    proper_controlled_equivalence,
)
from ctlhom.sset import Cell, Simplex, is_locally_finite
from exhaustions import (
    bead_string,
    dots_into_tail,
    long_tail,
    ray_onto_beads,
    relay,
    star_identity,
)

GOLDEN_PATH = Path(__file__).parent / "exhaustion_verdicts_golden.json"

BUILT_IN = {"ray": ray, "line": line, "plane": plane, "cylinder": cylinder}
SPACES = {
    **BUILT_IN,
    "balloon_ray": balloon_ray,
    "infinite_star": infinite_star,
    "relay": relay,
    "long_tail": long_tail,
    "bead_string": bead_string,
    "dots": lambda: dots_into_tail().source,
}
MAPS = {
    "fold_line_to_ray": fold_line_to_ray,
    "cylinder_projection": cylinder_projection,
    **{f"identity {name}": (lambda name=name: identity_on(name))
       for name in ("torus", "ray", "line", "plane", "cylinder")},
    "ray_onto_beads": ray_onto_beads,
    "dots_into_tail": dots_into_tail,
    "star_identity": star_identity,
}


def _check(space_arg: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["check", space_arg, "--json"])
    return {"exit": code, "json": json.loads(out.getvalue())}


def checks() -> dict:
    """Built-in spaces by name, the others through a saved space file."""
    out = {}
    with tempfile.TemporaryDirectory() as directory:
        for name, make in SPACES.items():
            arg = name
            if name not in BUILT_IN:
                arg = str(Path(directory) / f"{name}.json")
                save_space(make(), arg)
            out[name] = _check(arg)
    return out


def equivalences() -> dict:
    return {name: repr(proper_controlled_equivalence(make())) for name, make in MAPS.items()}


def _families(X) -> list:
    slab = X.slab
    return ([AllCellsFamily(), *(AllCellsFamily(n) for n in slab.dims())]
            + [PerSlabFamily(slab_cells=(c,)) for c in slab.all_cells()])


def families() -> dict:
    out = {}
    for name, make in SPACES.items():
        X = make()
        if is_locally_finite(X).ok:
            for family in _families(X):
                out[f"{name} {family!r}"] = family_is_controlled(X, family)
    ln, star = line(), infinite_star()
    for X, family in (
            (ln, FiniteFamily([Cell(0, "o")])),
            (ln, PerSlabFamily(base_cells=(), slab_cells=(Cell(0, "pout"),))),
            (ln, DegeneracyTowerFamily(Simplex((), Cell(0, "o")))),
            (star, AllCellsFamily()),
            (star, AllCellsFamily(1))):
        out[f"{X.name} {family!r}"] = family_is_controlled(X, family)
    return out


SECTIONS = {"check": checks, "equivalence": equivalences, "families": families}


def snapshot() -> dict:
    return {section: make() for section, make in SECTIONS.items()}


GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_exhaustion_verdicts_are_pinned(section):
    assert SECTIONS[section]() == GOLDEN[section]
