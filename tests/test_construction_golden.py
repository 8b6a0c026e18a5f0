"""Finite complexes as built, and the simplicial-identity check, pinned
against ``tests/construction_golden.json``.

Every theory is read off the cells and face assignments of a built complex,
and every complex is refused unless d_i d_j = d_{j-1} d_i holds on each of
its cells.  A change to how complexes are built must leave the space file of
every built complex as it is, and the check must report the same failures,
in the same order, on complexes with planted faults: some only through
nondegenerate faces, some through degenerate ones.  ``snapshot`` gives the
current values in the file's shape.  ``facet_complex`` glues its cells
without that check, so on random facet lists it must build what the checked
constructor builds from the same cells and faces.
"""

import json
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ctlhom import corpus
from ctlhom.sset import (Cell, FiniteSimplicialSet, PresentationError, Simplex, facet_complex,
                         standard_simplex)
from exhaustions import facet_lists

GOLDEN = json.loads((Path(__file__).parent / "construction_golden.json").read_text())

SIZES = range(8)


def spaces() -> dict:
    out = {name: build for name, (build, _) in corpus.SPACES.items()}
    out.update({name: build for name, (build, _) in corpus.FIXTURES.items()})
    for n in SIZES:
        out[f"sphere({n})"] = lambda n=n: corpus.sphere(n)
        out[f"delta({n})"] = lambda n=n: corpus.standard_simplex(n)
    return out


def _unchecked(cells: dict, name: str) -> FiniteSimplicialSet:
    """A complex glued cell by cell, without the identity check that the
    constructor would refuse it by: ``cells`` maps each Cell to its faces."""
    X = FiniteSimplicialSet({}, {}, name)
    X._glue(cells)
    return X


def _reordered(n: int, order) -> FiniteSimplicialSet:
    """delta(n) with the faces of its top cell put in another order."""
    good = standard_simplex(n)
    cells = {c: good._faces[c] for c in good.all_cells()}
    top = good.cells(n)[0]
    cells[top] = tuple(cells[top][k] for k in order)
    return _unchecked(cells, f"delta({n}) faces {list(order)}")


def _pinched(faces_of_t) -> FiniteSimplicialSet:
    """Edges e (d_0 = w, d_1 = v) and f (d_0 = v, d_1 = w) and a triangle t
    whose faces name the edges and the degeneracies of their ends."""
    v, w = Cell(0, "v"), Cell(0, "w")
    e, f = Cell(1, "e"), Cell(1, "f")
    table = {"e": Simplex((), e), "f": Simplex((), f),
             "s0v": Simplex((0,), v), "s0w": Simplex((0,), w)}
    return _unchecked({v: (), w: (), e: (Simplex((), w), Simplex((), v)),
                       f: (Simplex((), v), Simplex((), w)),
                       Cell(2, "t"): tuple(table[k] for k in faces_of_t)},
                      f"pinched {' '.join(faces_of_t)}")


def _cone_on_degenerate(n: int, k: int) -> FiniteSimplicialSet:
    """delta(n) plus an (n+1)-cell whose face k is the degeneracy s_0 of
    the last face of delta(n)'s top cell and whose other faces are the top
    cell itself: only the degeneracy-aware face action sees whether that is
    consistent."""
    good = standard_simplex(n)
    cells = {c: good._faces[c] for c in good.all_cells()}
    top = Simplex((), good.cells(n)[0])
    faces = [top] * (n + 2)
    faces[k] = Simplex((0,), good._faces[top.core][n].core)
    cells[Cell(n + 1, "cone")] = tuple(faces)
    return _unchecked(cells, f"cone on delta({n}) face {k}")


def planted() -> dict:
    """Complexes with planted faults (and a few without), by name."""
    out = {}
    for n in range(2, 8):
        for shift in (1, 2):
            order = [(k + shift) % (n + 1) for k in range(n + 1)]
            X = _reordered(n, order)
            out[X.name] = X
        X = _reordered(n, [1, 0] + list(range(2, n + 1)))
        out[X.name] = X
        X = _reordered(n, list(range(n - 1)) + [n, n - 1])
        out[X.name] = X
    for faces in (("e", "e", "s0v"), ("s0v", "e", "e"), ("e", "s0w", "e"),
                  ("s0w", "s0v", "e"), ("f", "e", "s0v"), ("s0v", "s0w", "s0v")):
        X = _pinched(faces)
        out[X.name] = X
    for n in (1, 2, 3):
        for k in range(n + 2):
            X = _cone_on_degenerate(n, k)
            out[X.name] = X
    return out


def snapshot() -> dict:
    return {
        "spaces": {name: corpus.space_to_json(build()) for name, build in spaces().items()},
        "identity_violations": {name: X.identity_violations()
                                for name, X in planted().items()},
    }


@pytest.mark.parametrize("name", sorted(spaces()))
def test_built_spaces_are_pinned(name):
    assert corpus.space_to_json(spaces()[name]()) == GOLDEN["spaces"][name]


def test_identity_violations_are_pinned():
    got = {name: X.identity_violations() for name, X in planted().items()}
    assert got == GOLDEN["identity_violations"]


def test_planted_faults_reach_every_pair_and_both_face_kinds():
    """The planted faults fail every (i, j) pair in every dimension that a
    pinned space has, and some fail only through a degenerate face."""
    messages = [m for ms in GOLDEN["identity_violations"].values() for m in ms]
    for n in range(2, 8):
        for j in range(1, n + 1):
            for i in range(j):
                assert any(m.startswith(f"d_{i} d_{j} != d_{j - 1} d_{i} at {n}-cell")
                           for m in messages), (i, j, n)
    assert GOLDEN["identity_violations"]["pinched e e s0v"] == []
    assert GOLDEN["identity_violations"]["pinched s0v e e"]


def _checked_facet_complex(facets, name) -> FiniteSimplicialSet:
    """The complex of the facets' nonempty vertex subsets, in the order and
    with the ids and faces ``facet_complex`` documents, built independently
    of it through the checked constructor."""
    subsets = sorted({s for f in facets for k in range(1, len(f) + 1)
                      for s in combinations(sorted(f), k)}, key=lambda s: (len(s), s))
    label = lambda s: ".".join(map(str, s))
    cells, faces = {}, {}
    for s in subsets:
        n = len(s) - 1
        cells.setdefault(n, []).append(label(s))
        if n:
            faces[Cell(n, label(s))] = tuple(Simplex((), Cell(n - 1, label(s[:k] + s[k + 1:])))
                                             for k in range(n + 1))
    return FiniteSimplicialSet(cells, faces, name)


@settings(max_examples=300, deadline=None)
@given(st.one_of(facet_lists(st.integers(0, 5)),
                 facet_lists(st.sampled_from(["1", "2", "3", "1.2", "2.3"]))))
def test_facet_complexes_are_what_the_checked_constructor_builds(facets):
    """Cell for cell, face for face, position for position and column for
    column; where dotted labels collide, both refuse with the same message."""
    try:
        want = _checked_facet_complex(facets, "random")
    except PresentationError as refusal:
        assert str(refusal).startswith("duplicate cell ids in dimension ")
        with pytest.raises(PresentationError) as err:
            facet_complex(facets, "random")
        assert type(err.value) is PresentationError and str(err.value) == str(refusal)
        return
    got = facet_complex(facets, "random")
    assert list(got.all_cells()) == list(want.all_cells())
    assert (got.name, got._faces, got._position) == (want.name, want._faces, want._position)
    assert all(got.boundary_columns(n) == want.boundary_columns(n) for n in range(-1, 5))
    assert got.identity_violations() == []


def test_colliding_dotted_labels_are_refused():
    """("1.2", "3") and ("1", "2.3") both name the edge 1.2.3."""
    with pytest.raises(PresentationError) as err:
        facet_complex([("1.2", "3"), ("1", "2.3")])
    assert type(err.value) is PresentationError
    assert str(err.value) == "duplicate cell ids in dimension 1"
