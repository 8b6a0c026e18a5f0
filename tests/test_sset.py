import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ctlhom import delta, sset

from ctlhom.corpus import (
    balloon_ray,
    circle,
    cylinder,
    cylinder_projection,
    fold_line_to_ray,
    infinite_star,
    line,
    plane,
    point,
    ray,
    rp2,
    sphere,
    torus,
)
from ctlhom.delta import all_monotone_maps, compose, identity
from ctlhom.sset import (
    AllCellsFamily,
    Cell,
    DegeneracyTowerFamily,
    FiniteFamily,
    FiniteSimplicialSet,
    PerSlabFamily,
    PresentationError,
    SimplicialError,
    SimplicialMap,
    Simplex,
    all_simplices,
    apply_ordinal_map,
    degeneracy,
    face,
    family_is_controlled,
    identity_periodic_map,
    identity_simplicial_map,
    is_locally_finite,
    is_proper_map,
    proper_controlled_equivalence,
    standard_simplex,
)
from exhaustions import relay

D2 = standard_simplex(2)


# ------------------------------------------------------------- simplex words

def test_simplex_word_must_decrease_strictly():
    core = Cell(0, "v")
    Simplex((1, 0), core)  # fine: s1 s0 v
    with pytest.raises(SimplicialError):
        Simplex((0, 1), core)
    with pytest.raises(SimplicialError):
        Simplex((0, 0), core)


def test_simplex_word_indices_must_be_in_range():
    # s_j on an n-simplex needs 0 <= j <= n, so the leading letter is capped
    with pytest.raises(SimplicialError):
        Simplex((1,), Cell(0, "v"))
    assert Simplex((0,), Cell(0, "v")).dim == 1


def test_nondegenerate_iff_empty_word():
    v = Cell(0, "v")
    assert Simplex((), v).is_nondegenerate
    assert not Simplex((0,), v).is_nondegenerate


# --------------------------------------------------------- the ordinal action

def test_word_surjection_matches_the_codegeneracy_word():
    # the memoised surjection of every strictly decreasing word, dim <= 6
    words = 0
    for dim in range(7):
        for length in range(dim + 1):
            for indices in combinations(range(dim), length):
                word = tuple(sorted(indices, reverse=True))
                expected = delta.from_codegeneracy_word(reversed(word), dim)
                assert sset._word_surjection(word, dim) == expected
                assert sset._word_surjection(word, dim) == expected
                words += 1
    assert words == 2 ** 7 - 1


@pytest.mark.parametrize("X", [D2, circle(), torus(), rp2()],
                         ids=["delta2", "circle", "torus", "rp2"])
def test_action_is_functorial(X):
    """X(f.g) == X(g) after X(f) over all composable ordinal map pairs."""
    for n in X.dims():
        for x in (X.simplex(c) for c in X.cells(n)):
            for f in all_monotone_maps(min(n + 1, 3), n):
                y = apply_ordinal_map(X, x, f)
                for g in all_monotone_maps(min(f.source_dim + 1, 3), f.source_dim):
                    left = apply_ordinal_map(X, y, g)
                    right = apply_ordinal_map(X, x, compose(f, g))
                    assert left == right


def _reference_action(X, x, f):
    """The ordinal action without memoisation: compose with the word's
    surjection, factor, walk the cofaces, re-degenerate."""
    surjection = delta.from_codegeneracy_word(reversed(x.word), x.dim)
    epi, mono = delta.epi_mono_factor(compose(surjection, f))
    y = Simplex((), x.core)
    for i in delta.coface_word(mono):
        y = face(X, y, i)
    if epi.is_identity:
        return y
    total = compose(delta.from_codegeneracy_word(reversed(y.word), y.dim), epi)
    return Simplex(tuple(reversed(delta.codegeneracy_word(total))), y.core)


def _collapsed_sphere(n):
    """One vertex and one n-cell whose faces are all degenerate."""
    v = Cell(0, "v")
    word = tuple(range(n - 2, -1, -1))
    return FiniteSimplicialSet(
        cells={0: ("v",), n: ("t",)},
        faces={(n, "t"): tuple(Simplex(word, v) for _ in range(n + 1))},
    )


@pytest.mark.parametrize(
    "X", [D2, circle(), rp2(), _collapsed_sphere(2), _collapsed_sphere(3)],
    ids=["delta2", "circle", "rp2", "collapsed-s2", "collapsed-s3"])
def test_action_matches_the_unmemoised_reference(X):
    for n in range(4):
        for x in all_simplices(X, n):
            for k in range(4):
                for f in all_monotone_maps(k, n):
                    assert apply_ordinal_map(X, x, f) == _reference_action(X, x, f)


def test_action_on_identity_is_identity():
    for n in D2.dims():
        for c in D2.cells(n):
            x = D2.simplex(c)
            assert apply_ordinal_map(D2, x, identity(n)) == x


def test_simplicial_identity_didj():
    X = torus()
    for c in X.cells(2):
        x = X.simplex(c)
        for j in range(3):
            for i in range(j):
                left = face(X, face(X, x, j), i)
                right = face(X, face(X, x, i), j - 1)
                assert left == right


def test_face_of_degeneracy_cancels():
    v = D2.simplex(Cell(0, "0"))
    sv = degeneracy(D2, v, 0)
    assert face(D2, sv, 0) == v
    assert face(D2, sv, 1) == v


def test_identity_violations_empty_on_corpus():
    for X in (D2, circle(), torus(), rp2()):
        assert X.identity_violations() == []


def _simplices(*ids, dim):
    return tuple(Simplex((), Cell(dim, i)) for i in ids)


def test_identity_violation_on_nondegenerate_faces_is_reported():
    # d_0 and d_1 of the triangle are swapped: (ac, bc, ab) instead of (bc, ac, ab)
    with pytest.raises(PresentationError) as err:
        FiniteSimplicialSet(
            cells={0: ("a", "b", "c"), 1: ("ab", "bc", "ac"), 2: ("t",)},
            faces={
                (1, "ab"): _simplices("b", "a", dim=0),
                (1, "bc"): _simplices("c", "b", dim=0),
                (1, "ac"): _simplices("c", "a", dim=0),
                (2, "t"): _simplices("ac", "bc", "ab", dim=1),
            },
        )
    assert str(err.value) == (
        "d_0 d_2 != d_1 d_0 at 2-cell 't'; d_1 d_2 != d_1 d_1 at 2-cell 't'"
    )


def test_identity_violation_on_degenerate_faces_is_reported():
    # d_0 d_1 = d_0 e = b, but d_0 d_0 = d_0 s_0 a = a
    sa = Simplex((0,), Cell(0, "a"))
    with pytest.raises(PresentationError) as err:
        FiniteSimplicialSet(
            cells={0: ("a", "b"), 1: ("e",), 2: ("t",)},
            faces={
                (1, "e"): _simplices("b", "a", dim=0),
                (2, "t"): (sa, Simplex((), Cell(1, "e")), sa),
            },
        )
    assert str(err.value) == "d_0 d_1 != d_0 d_0 at 2-cell 't'"


def test_all_simplices_counts_for_the_triangle():
    # monotone maps [n] -> [2]: C(n+3, 2) of them
    assert [len(all_simplices(D2, n)) for n in range(4)] == [3, 6, 10, 15]
    assert D2.cell_count() == 7


def test_standard_simplex_cells_and_faces_are_pinned():
    X = standard_simplex(3)
    assert X.name == "delta(3)"
    assert {n: [c.id for c in X.cells(n)] for n in X.dims()} == {
        0: ["0", "1", "2", "3"],
        1: ["0.1", "0.2", "0.3", "1.2", "1.3", "2.3"],
        2: ["0.1.2", "0.1.3", "0.2.3", "1.2.3"],
        3: ["0.1.2.3"],
    }
    assert [X.face(Cell(2, "0.1.3"), i) for i in range(3)] == [
        Simplex((), Cell(1, "1.3")), Simplex((), Cell(1, "0.3")), Simplex((), Cell(1, "0.1"))]
    with pytest.raises(SimplicialError):
        standard_simplex(-1)


def test_faces_must_be_listed_for_every_positive_cell():
    with pytest.raises(PresentationError):
        FiniteSimplicialSet(
            cells={0: ("v",), 1: ("e",)},
            faces={},
        )


def test_face_dimensions_are_checked():
    v = Simplex((), Cell(0, "v"))
    with pytest.raises(PresentationError):
        FiniteSimplicialSet(
            cells={0: ("v",), 2: ("t",)},
            faces={(2, "t"): (v, v, v)},
        )


# ------------------------------------------------------------ exhaustions

def test_line_truncations_grow_linearly():
    ln = line()
    for d in range(4):
        K = ln.truncate(d).complex
        assert len(K.cells(0)) == 2 * d + 1
        assert len(K.cells(1)) == (2 * d if d else 0)


def test_truncations_are_cached():
    ln = line()
    assert ln.truncate(2) is ln.truncate(2)


def test_frontier_is_the_out_boundary():
    ln = line()
    t = ln.truncate(2)
    assert sorted(c.id for c in t.frontier) == ["a0c2.pout", "a1c2.pout"]


def test_copy_cells_are_named_by_attachment_and_stage():
    K = ray().truncate(3).complex
    assert K.has_cell(Cell(1, "a0c3.seg"))
    assert K.has_cell(Cell(0, "o"))


def test_stages_are_subcomplexes():
    pl = line()
    small = pl.truncate(1).complex
    big = pl.truncate(3).complex
    for n in small.dims():
        for c in small.cells(n):
            assert big.has_cell(c)


# -------------------------------------------------------- local finiteness

@pytest.mark.parametrize("space,star", [
    (line(), 3), (ray(), 3), (torus(), 13), (cylinder(), 13),
], ids=["line", "ray", "torus", "cylinder"])
def test_locally_finite_spaces(space, star):
    report = is_locally_finite(space)
    assert report.ok
    assert report.max_star == star


def test_infinite_star_is_caught():
    report = is_locally_finite(infinite_star())
    assert not report.ok
    assert "o" in report.witness
    # a negative probe depth compares no stages, so it may not certify
    for depth in (-1, -2):
        with pytest.raises(SimplicialError, match="probe_depth must be at least 0"):
            is_locally_finite(infinite_star(), probe_depth=depth)


LOCAL_FINITENESS_GOLDEN = json.loads(
    (Path(__file__).parent / "local_finiteness_golden.json").read_text())
_PROBED = {"ray": ray, "line": line, "plane": plane, "cylinder": cylinder,
           "balloon_ray": balloon_ray, "relay": relay, "infinite_star": infinite_star}


@pytest.mark.parametrize("key", sorted(LOCAL_FINITENESS_GOLDEN))
def test_local_finiteness_reports_are_pinned(key):
    """The whole report, witness, notes and star sizes included, at each
    probe depth."""
    name, depth = key.split()
    report = is_locally_finite(_PROBED[name](), probe_depth=int(depth))
    assert repr(report) == LOCAL_FINITENESS_GOLDEN[key]


def _stars_by_definition(X):
    return {v: tuple(x for x in X.all_cells() if v in X.vertices_of(x))
            for v in X.cells(0)}


@pytest.mark.parametrize("space", [ray, line, plane, cylinder, balloon_ray, infinite_star])
def test_star_index_matches_the_definition_on_stages(space):
    exhaustion = space()
    for depth in range(6):
        K = exhaustion.truncate(depth).complex
        for v, star in _stars_by_definition(K).items():
            assert K.star(v) == star
        for edge in K.cells(1)[:1]:
            with pytest.raises(SimplicialError, match="0-simplices"):
                K.star(edge)


def test_star_index_matches_the_definition_on_finite_complexes():
    for X in (point(), circle(), torus(), rp2(), D2, sphere(3)):
        for v, star in _stars_by_definition(X).items():
            assert X.star(v) == star
    # a vertex the complex does not have has an empty star
    assert D2.star(Cell(0, "elsewhere")) == ()
    with pytest.raises(SimplicialError, match="0-simplices"):
        D2.star(Cell(1, "0.1"))


# ------------------------------------------------------------ simplicial maps

def test_simplicial_map_must_commute_with_faces():
    tri = standard_simplex(1)
    pt = point()
    collapse = {c: Simplex(tuple(range(n - 1, -1, -1)), Cell(0, "pt"))
                for n in tri.dims() for c in tri.cells(n)}
    f = SimplicialMap(tri, pt, collapse)
    assert f.face_violations() == []

    with pytest.raises(SimplicialError):
        SimplicialMap(tri, tri, {
            Cell(0, "0"): tri.simplex(Cell(0, "0")),
            Cell(0, "1"): tri.simplex(Cell(0, "0")),
            Cell(1, "0.1"): tri.simplex(Cell(1, "0.1")),  # faces disagree
        })


def test_simplicial_map_pushes_degeneracies_through():
    f = identity_simplicial_map(D2)
    x = degeneracy(D2, D2.simplex(Cell(1, "0.1")), 1)
    assert f.eval(x) == x


# ----------------------------------------------------- properness certificates

def test_identity_maps_are_proper():
    for space in (ray(), line(), cylinder()):
        f = identity_periodic_map(space)
        assert [r.target_attachment for r in f.slab_rules] == list(range(len(space.attachments)))
        assert is_proper_map(f).ok


def test_fold_is_proper():
    assert is_proper_map(fold_line_to_ray()).ok


PROJECTION_WITNESS = "fiber over 'r0' keeps growing: sizes [5, 9, 13, 17, 21, 25, 29, 33]"


def test_cylinder_projection_is_not_proper():
    report = is_proper_map(cylinder_projection())
    assert not report.ok
    assert report.witness == PROJECTION_WITNESS


@pytest.mark.parametrize("seed", ["1", "2"])
def test_properness_witness_does_not_depend_on_hash_order(seed):
    """Every ring cell's fiber grows at every stage; the tie goes to the
    first cell in cell order, whatever the hash seed."""
    src = str(Path(sset.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "from ctlhom.corpus import cylinder_projection\n"
         "from ctlhom.sset import is_proper_map\n"
         "print(is_proper_map(cylinder_projection()).witness)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == PROJECTION_WITNESS + "\n"


def test_short_properness_probe_is_undetermined():
    # depth 2 is the first stage whose fibers are compared, so depth 1 proves nothing
    with pytest.raises(SimplicialError, match="undetermined within max_depth 1"):
        is_proper_map(cylinder_projection(), max_depth=1)
    assert not is_proper_map(cylinder_projection(), max_depth=2).ok
    with pytest.raises(SimplicialError, match="undetermined within max_depth 2"):
        is_proper_map(fold_line_to_ray(), max_depth=2)
    assert is_proper_map(fold_line_to_ray(), max_depth=3).ok
    # the equivalence report starts from the properness probe, so it refuses too
    with pytest.raises(SimplicialError, match="undetermined"):
        proper_controlled_equivalence(cylinder_projection(), max_depth=1)


def test_properness_window_must_be_positive():
    for f in (cylinder_projection(), fold_line_to_ray()):
        with pytest.raises(SimplicialError, match="window must be at least 1"):
            is_proper_map(f, window=0)


def test_equivalence_agrees_on_positive_cases():
    for f in (identity_periodic_map(line()), fold_line_to_ray()):
        report = proper_controlled_equivalence(f)
        assert report.proper_ok and report.controlled_ok and report.agree


def test_equivalence_agrees_on_the_negative_case():
    report = proper_controlled_equivalence(cylinder_projection())
    assert not report.proper_ok
    assert not report.controlled_ok
    assert report.agree
    assert "infinite" in report.controlled_witness


# ------------------------------------------------------------- cell families

def test_family_controlledness():
    ln = line()
    assert family_is_controlled(ln, FiniteFamily([Cell(0, "o")]))
    assert family_is_controlled(ln, AllCellsFamily(0))
    assert family_is_controlled(ln, PerSlabFamily(
        base_cells=(), slab_cells=(Cell(0, "pout"),)))
    assert not family_is_controlled(ln, DegeneracyTowerFamily(
        Simplex((), Cell(0, "o"))))


def test_all_cells_family_needs_local_finiteness():
    assert not family_is_controlled(infinite_star(), AllCellsFamily(1))
