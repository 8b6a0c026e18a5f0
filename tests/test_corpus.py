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
