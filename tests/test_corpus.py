import re

import pytest

from ctlhom.chainalg import bm_homology, homology
from ctlhom.corpus import (
    SPACES,
    SpaceFormatError,
    UnknownSpaceError,
    build,
    facet_complex,
    load_space,
    resolve_space,
    rp2,
    save_space,
    space_from_json,
    space_names,
    space_to_json,
    sphere,
    torus,
)
from ctlhom.sset import Exhaustion, FiniteSimplicialSet


def test_every_named_space_builds():
    for name in space_names():
        space = build(name.replace("(n)", "(2)"))
        assert isinstance(space, (FiniteSimplicialSet, Exhaustion))


def test_parametric_names():
    assert build("delta(3)").cell_count() == 15
    assert build("sphere(0)").cell_count() == 2
    with pytest.raises(UnknownSpaceError):
        build("delta(x)")
    with pytest.raises(UnknownSpaceError):
        build("mystery")


def test_facet_complex_closes_downward():
    X = facet_complex([(1, 2, 3)])
    assert [len(X.cells(n)) for n in X.dims()] == [3, 3, 1]
    assert X.identity_violations() == []


def test_facet_counts():
    t = torus()
    assert [len(t.cells(n)) for n in t.dims()] == [7, 21, 14]
    r = rp2()
    assert [len(r.cells(n)) for n in r.dims()] == [6, 15, 10]
    s = sphere(2)
    assert [len(s.cells(n)) for n in s.dims()] == [4, 6, 4]


def test_surface_euler_characteristics():
    # chi = V - E + F straight off the cell counts
    t = torus()
    assert sum((-1) ** n * len(t.cells(n)) for n in t.dims()) == 0
    r = rp2()
    assert sum((-1) ** n * len(r.cells(n)) for n in r.dims()) == 1


def test_every_edge_of_a_closed_surface_is_in_two_triangles():
    for X in (torus(), rp2()):
        counts = {e: 0 for e in X.cells(1)}
        for tri in X.cells(2):
            for i in range(3):
                counts[X.face(tri, i).core] += 1
        assert set(counts.values()) == {2}


# ---------------------------------------------------------------- space files

@pytest.mark.parametrize("name", ["torus", "circle", "ray", "plane"])
def test_round_trip_through_disk(tmp_path, name):
    space = build(name)
    path = tmp_path / f"{name}.json"
    save_space(space, str(path))
    loaded = load_space(str(path))
    assert type(loaded) is type(space)
    assert homology(loaded).groups == homology(space).groups
    if isinstance(space, Exhaustion):
        assert bm_homology(loaded).groups == bm_homology(space).groups


def test_round_trip_preserves_the_document(tmp_path):
    """Fixtures whose homology diverges still save and load exactly."""
    from ctlhom.corpus import balloon_ray
    space = balloon_ray()
    path = tmp_path / "balloon.json"
    save_space(space, str(path))
    assert space_to_json(load_space(str(path))) == space_to_json(space)


def test_a_saved_sphere_loads_back_cell_for_cell(tmp_path):
    space = sphere(7)
    path = tmp_path / "sphere7.json"
    save_space(space, str(path))
    loaded = load_space(str(path))
    assert loaded.name == space.name and loaded.dims() == space.dims()
    for n in space.dims():
        assert loaded.cells(n) == space.cells(n)
        for cell in loaded.cells(n) if n else ():
            assert [loaded.face(cell, i) for i in range(n + 1)] == [
                space.face(cell, i) for i in range(n + 1)]
    assert loaded.identity_violations() == []


def test_a_face_core_is_looked_up_in_its_own_dimension():
    doc = space_to_json(torus())
    doc["cells"][-1]["faces"][0]["core"] = "0"  # a vertex id, named as an edge
    with pytest.raises(SpaceFormatError) as err:
        space_from_json(doc)
    assert str(err.value) == (
        "finite space: face 0 of '3.5.6' references unknown 1-cell '0'")


def test_json_document_shape():
    doc = space_to_json(torus())
    assert doc["format"] == "ctlhom-space"
    assert doc["schema_version"] == 1
    assert doc["kind"] == "finite"
    ex = space_to_json(build("line"))
    assert ex["kind"] == "exhaustion"
    assert len(ex["attachments"]) == 2


def test_format_errors_are_specific():
    with pytest.raises(SpaceFormatError, match="format"):
        space_from_json({"schema_version": 1, "kind": "finite", "cells": []})
    doc = space_to_json(torus())
    doc["schema_version"] = 99
    with pytest.raises(SpaceFormatError, match="schema_version"):
        space_from_json(doc)
    doc = space_to_json(torus())
    doc["cells"][-1]["faces"] = []  # a triangle stripped of its face list
    with pytest.raises(SpaceFormatError):
        space_from_json(doc)


def test_json_booleans_and_non_string_names_are_rejected():
    """JSON true loads as a Python bool, which counts as the int 1."""
    def rejects(edit, match):
        doc = space_to_json(torus())
        edit(doc)
        with pytest.raises(SpaceFormatError, match=match):
            space_from_json(doc)

    rejects(lambda d: d.update(name=5), "name must be a string")
    rejects(lambda d: d.update(name=["torus"]), "name must be a string")
    rejects(lambda d: d.update(schema_version=True), "schema_version")
    rejects(lambda d: d["cells"][0].update(dim=True), "bad dimension")
    rejects(lambda d: d["cells"][-1]["faces"][0].update(word=[True]), "bad word")
    line = space_to_json(build("line"))
    line["base"]["name"] = 7
    with pytest.raises(SpaceFormatError, match="base: name must be a string"):
        space_from_json(line)


def _set(path, value):
    """An edit of a space document: the entry at ``path`` becomes ``value``."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


@pytest.mark.parametrize("space, edit, message", [
    ("torus", _set(["cells"], {}), "finite space: expected an object with a 'cells' list"),
    ("torus", _set(["cells", 0], 5), "finite space: cell #0 is not an object"),
    ("torus", _set(["cells", 0, "id"], ""), "finite space: cell #0 has bad id ''"),
    ("torus", _set(["cells", 0, "faces"], []), "finite space: 0-cell '0' cannot have faces"),
    ("torus", _set(["cells", -1, "faces", 0], "x"),
     "finite space: face 0 of '3.5.6' is not an object"),
    ("ray", _set(["slab", "cells", 2, "faces", 0, "word"], [0]),
     "slab: face 0 of 'seg' has a word longer than its dimension"),
    ("torus", _set(["cells", -1, "faces", 0], {"word": [1], "core": "0"}),
     "finite space: face 0 of '3.5.6': degeneracy word (1,) out of range over a 0-cell"),
    ("torus", lambda d: d["cells"].append({"dim": 0, "id": "0"}),
     "finite space: duplicate cell ids in dimension 0"),
    ("torus", _set(["kind"], "cw"), "unknown kind 'cw' (expected finite or exhaustion)"),
    ("ray", _set(["attachments"], []), "an exhaustion needs a nonempty attachments list"),
    ("ray", _set(["attachments", 0], 5), "attachment #0 is not an object"),
    ("ray", _set(["attachments", 0, "slab_in"], "pin"),
     "attachment #0: 'slab_in' must be a list of cell ids"),
    ("ray", _set(["attachments", 0, "slab_in"], ["pin", "pout"]),
     "attachment #0: attachment id lists must have equal length"),
    ("line", _set(["attachments", 1], {"base": ["o", "o"], "slab_in": ["pin", "pout"],
                                       "slab_out": ["pout", "pin"]}),
     "attachment #1: attachment id lists must be injective"),
], ids=["cells not a list", "cell not an object", "empty id", "vertex with faces",
        "face not an object", "word too long", "word out of range", "duplicate id",
        "unknown kind", "no attachments", "attachment not an object", "ids not a list",
        "id lists of unequal length", "repeated id"])
def test_loader_refusals_name_the_fault(space, edit, message):
    doc = space_to_json(build(space))
    edit(doc)
    with pytest.raises(SpaceFormatError) as err:
        space_from_json(doc)
    assert type(err.value) is SpaceFormatError and str(err.value) == message


def test_builders_and_the_writer_refuse_what_they_cannot_make(tmp_path):
    with pytest.raises(UnknownSpaceError) as err:
        sphere(-1)
    assert type(err.value) is UnknownSpaceError
    assert str(err.value) == "sphere dimension must be non-negative"
    with pytest.raises(SpaceFormatError) as err:
        space_to_json(torus().cells(0))
    assert type(err.value) is SpaceFormatError and str(err.value) == "cannot serialize tuple"
    (tmp_path / "taken").mkdir()
    with pytest.raises(IsADirectoryError):
        save_space(torus(), str(tmp_path / "taken"))
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]  # no temp file is left


def test_loader_refuses_what_is_not_a_space_file(tmp_path):
    with pytest.raises(SpaceFormatError, match="^top level must be an object$"):
        space_from_json([])
    missing = tmp_path / "missing.json"
    with pytest.raises(SpaceFormatError, match=f"^{re.escape(str(missing))}: No such file"):
        load_space(str(missing))


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SpaceFormatError):
        load_space(str(path))


def test_resolve_space_prefers_names(tmp_path):
    assert isinstance(resolve_space("torus"), FiniteSimplicialSet)
    path = tmp_path / "saved.json"
    save_space(torus(), str(path))
    assert isinstance(resolve_space(str(path)), FiniteSimplicialSet)
    with pytest.raises(UnknownSpaceError):
        resolve_space("no-such-space")


def test_descriptions_are_informative():
    for name, (_, description) in SPACES.items():
        assert description, name
