import json
import os
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ctlhom import chainalg, delta, maps, sset
from ctlhom.chainalg import AbelianGroup, NonStabilizationError, bm_homology, homology
from ctlhom.corpus import (
    balloon_ray,
    circle,
    cylinder,
    cylinder_projection,
    fold_line_to_ray,
    identity_on,
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
from ctlhom.maps import (
    AllCellsFamily,
    DegeneracyTowerFamily,
    FiniteFamily,
    PerSlabFamily,
    PeriodicMap,
    SimplicialMap,
    SlabRule,
    family_is_controlled,
    identity_periodic_map,
    identity_simplicial_map,
    is_proper_map,
    proper_controlled_equivalence,
)
from ctlhom.sset import (
    Attachment,
    Cell,
    Exhaustion,
    FiniteSimplicialSet,
    PresentationError,
    SimplicialError,
    Simplex,
    all_simplices,
    apply_ordinal_map,
    degeneracy,
    face,
    facet_complex,
    is_locally_finite,
    standard_simplex,
)
from ctlhom.snf import IntMatrix
from exhaustions import (
    bead_string,
    dots_into_tail,
    gluings,
    long_tail,
    ray_beside_a_star,
    ray_onto_beads,
    relay,
    star_identity,
)

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


def test_simplex_is_its_word_and_core_tuple():
    """A Simplex equals and hashes like its plain (word, core) tuple, as a
    Cell does like its (dim, id) tuple."""
    v, e = Cell(0, "v"), Cell(1, "e")
    for x in (Simplex((), e), Simplex((1, 0), v), Simplex([0], v)):
        plain = (x.word, x.core)
        assert x == plain and plain == x and hash(x) == hash(plain)
        assert tuple(x) == plain and isinstance(x.word, tuple)
    assert Simplex([1, 0], v) == Simplex((1, 0), v)
    assert {Simplex((0,), v): 1}[((0,), v)] == 1
    assert Simplex((), e).dim == 1 and Simplex((1, 0), v).dim == 2
    assert Simplex((), e) != Simplex((), Cell(1, "f"))
    with pytest.raises(AttributeError):
        Simplex((), e).word = (0,)


def test_simplex_validation_messages_and_repr():
    v = Cell(0, "v")
    for word, message in (((-1,), "negative degeneracy index in (-1,)"),
                          ((0, 1), "degeneracy word (0, 1) is not strictly decreasing"),
                          ((1,), "degeneracy word (1,) out of range over a 0-cell")):
        with pytest.raises(SimplicialError) as err:
            Simplex(word, v)
        assert str(err.value) == message
    assert repr(Simplex((), Cell(1, "e"))) == "Simplex('e')"
    assert repr(Simplex((1, 0), v)) == "Simplex(s[1, 0] 'v')"


def test_make_checks_fields_as_the_constructor_does():
    """namedtuple's ``_make`` (and ``_replace``, which calls it) goes through
    ``__new__``, so neither builds a simplex or cell the constructor refuses."""
    v = Cell(0, "v")
    for build in (lambda: Simplex._make(((0, 1), v)),
                  lambda: Simplex((0,), v)._replace(word=(0, 1))):
        with pytest.raises(SimplicialError) as err:
            build()
        assert str(err.value) == "degeneracy word (0, 1) is not strictly decreasing"
    with pytest.raises(SimplicialError, match="out of range over a 0-cell"):
        Simplex._make([(1,), v])
    with pytest.raises(SimplicialError) as err:
        Cell._make((-1, "x"))
    assert str(err.value) == "cell dimension must be non-negative"
    with pytest.raises(SimplicialError, match="not strictly decreasing"):
        FiniteSimplicialSet({0: ["v"], 3: ["t"]},
                            {(3, "t"): (Simplex._make(((0, 1), v)),) * 4})
    assert Simplex._make([[1, 0], v]) == Simplex((1, 0), v)
    assert type(Simplex._make(((), v))) is Simplex
    assert Cell._make((2, "t")) == Cell(2, "t") and type(Cell._make((2, "t"))) is Cell


def test_plain_tuples_are_refused_where_a_simplex_is_required():
    from ctlhom.maps import Cochain

    v, e = Cell(0, "v"), Cell(1, "e")
    with pytest.raises(PresentationError, match="face 0 of 'e' is not a simplex"):
        FiniteSimplicialSet({0: ["v"], 1: ["e"]}, {(1, "e"): (((), v), Simplex((), v))})
    X = circle()
    plain = {c: ((), c) for c in X.all_cells()}
    with pytest.raises(SimplicialError, match=r"to \(\(\), Cell\(0, 'v'\)\), not a 0-simplex"):
        SimplicialMap(X, X, plain)
    phi = Cochain(X, 1, {e: 3})
    assert phi(Simplex((), e)) == 3 and phi(e) == 3
    with pytest.raises(SimplicialError, match="cannot evaluate a cochain"):
        phi(((), e))


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


_NOPE = Cell(0, "nope")


@pytest.mark.parametrize("act", [
    lambda X: apply_ordinal_map(X, Simplex((), _NOPE), identity(0)),
    lambda X: degeneracy(X, Simplex((), _NOPE), 0),
    lambda X: face(X, Simplex((0,), _NOPE), 0),
    # d_0 s_0 e == e walks no face; d_2 s_0 e == s_0 d_1 e reads one
    lambda X: face(X, Simplex((0,), Cell(1, "nope")), 0),
    lambda X: face(X, Simplex((0,), Cell(1, "nope")), 2),
], ids=["action", "degeneracy", "face", "face-no-walk", "face-walk"])
def test_the_action_refuses_a_cell_the_complex_lacks(act):
    with pytest.raises(SimplicialError, match=r"^unknown cell Cell\(\d, 'nope'\)$"):
        act(circle())


def test_vertices_of_refuses_a_cell_the_complex_lacks():
    X = circle()
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(SimplicialError, match=r"^unknown cell Cell\(0, 'nope'\)$"):
            X.vertices_of(_NOPE)
    with pytest.raises(SimplicialError, match="unknown cell"):
        sset.adjacent(X, Simplex((), _NOPE), Simplex((), _NOPE))
    # on a stage: a cell glued later is refused, before and after the
    # growing complex has read its vertices for a deeper stage
    exhaustion = line()
    small, big = exhaustion.truncate(1).complex, exhaustion.truncate(3).complex
    later = next(c for c in big.cells(1) if not small.has_cell(c))
    for K in (small, big):
        with pytest.raises(SimplicialError, match="unknown cell"):
            K.vertices_of(_NOPE)
    with pytest.raises(SimplicialError, match="unknown cell"):
        small.vertices_of(later)
    assert len(big.vertices_of(later)) == 2
    with pytest.raises(SimplicialError, match="unknown cell"):
        small.vertices_of(later)


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


_V, _W = Simplex((), Cell(0, "v")), Simplex((), Cell(0, "w"))


@pytest.mark.parametrize("cells, faces, message", [
    ({0: ["v", "v"]}, {}, "duplicate cell ids in dimension 0"),
    ({0: ["v"], 1: ["e"]}, {(1, "e"): (_V,)}, "1-cell 'e' needs 2 faces, got 1"),
    ({0: ["v"], 1: ["e"]}, {(1, "e"): (_V, _W)},
     "face 1 of 'e' references unknown cell Cell(0, 'w')"),
    ({0: ["v"], True: ["e"]}, {}, "cell dimension True is not an integer"),
    ({0: ["v"], 1.0: ["e"]}, {}, "cell dimension 1.0 is not an integer"),
    ({0: ["v"], "1": ["e"]}, {}, "cell dimension '1' is not an integer"),
    ({0: ["v"], -1: ["x"]}, {}, "cell dimension -1 is negative"),
], ids=["duplicate id", "face count", "unknown face", "bool dimension", "float dimension",
        "str dimension", "negative dimension"])
def test_a_complex_refuses_a_bad_presentation(cells, faces, message):
    with pytest.raises(PresentationError) as err:
        FiniteSimplicialSet(cells, faces)
    assert type(err.value) is PresentationError and str(err.value) == message


_E = Cell(1, "0.1")


@pytest.mark.parametrize("act, kind, message", [
    (lambda: D2.face(Cell(0, "0"), 0), SimplicialError, "0-simplices have no faces"),
    (lambda: D2.face(_E, 2), SimplicialError, "face index 2 outside 0..1"),
    (lambda: D2.face(_E, -1), SimplicialError, "face index -1 outside 0..1"),
    (lambda: face(D2, Cell(0, "0"), 0), SimplicialError, "0-simplices have no faces"),
    (lambda: face(D2, Simplex((0,), Cell(0, "0")), 2), SimplicialError,
     "face index 2 outside 0..1"),
    (lambda: degeneracy(D2, _E, 2), SimplicialError, "degeneracy index 2 outside 0..1"),
    (lambda: degeneracy(D2, Cell(0, "0"), -1), SimplicialError,
     "degeneracy index -1 outside 0..0"),
    (lambda: apply_ordinal_map(D2, D2.simplex(_E), identity(2)), SimplicialError,
     "ordinal map into dimension 2 applied to a 1-simplex"),
    (lambda: facet_complex([[0, 1], []]), PresentationError, "empty facet"),
    (lambda: ray().truncate(-1), SimplicialError, "depth must be non-negative"),
], ids=["cell face of a vertex", "cell face index high", "cell face index negative",
        "face of a vertex", "face index high", "degeneracy index high",
        "degeneracy index negative", "action dimension", "empty facet", "negative depth"])
def test_operators_refuse_what_is_out_of_range(act, kind, message):
    with pytest.raises(SimplicialError) as err:
        act()
    assert type(err.value) is kind and str(err.value) == message


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


def _ray_with_base_vertex(vertex_id):
    base = FiniteSimplicialSet({0: ["o", vertex_id]}, {}, name="origin")
    return sset.Exhaustion(base, ray().slab, ray().attachments)


_SEGMENT = FiniteSimplicialSet(  # an edge e from o to p
    {0: ["o", "p"], 1: ["e"]}, {(1, "e"): (Simplex((), Cell(0, "p")), Simplex((), Cell(0, "o")))})


@pytest.mark.parametrize("base, attachments, message", [
    (ray().base, [], "an exhaustion needs at least one attachment"),
    (ray().base, [Attachment(["x"], ["pin"], ["pout"])], "base_ids[0]: unknown cell id 'x'"),
    (ray().base, [Attachment(["o"], ["pin"], ["pout"]), Attachment(["o"], ["pin"], ["nope"])],
     "slab_out_ids[1]: unknown cell id 'nope'"),
    (FiniteSimplicialSet({0: ["o"], 1: ["o"]}, {(1, "o"): (Simplex((), Cell(0, "o")),) * 2}),
     [Attachment(["o"], ["pin"], ["pout"])],
     "base complex reuses id 'o' across dimensions; attachment ids must be unambiguous"),
    (ray().base, [Attachment(["o"], ["seg"], ["pout"])],
     "attachment 0 slab in-boundary: not face-closed ('seg' has face 'pout' outside)"),
    (_SEGMENT, [Attachment(["o", "e", "p"], ["pin", "pout", "seg"], ["pin", "pout", "seg"])],
     "attachment 0 base gluing: 'e' and 'pout' differ in dimension"),
    (_SEGMENT, [Attachment(["p", "o", "e"], ["pin", "pout", "seg"], ["pin", "pout", "seg"])],
     "attachment 0 base gluing: gluing does not commute with face 0 of 'e'"),
], ids=["no attachment", "unknown base id", "unknown slab id", "id in two dimensions",
        "not face-closed", "dimension", "faces"])
def test_an_exhaustion_refuses_a_bad_attachment(base, attachments, message):
    with pytest.raises(PresentationError) as err:
        Exhaustion(base, ray().slab, attachments)
    assert type(err.value) is PresentationError and str(err.value) == message


@pytest.mark.parametrize("ids, message", [
    ((["o"], ["pin", "pout"], ["pout"]), "attachment id lists must have equal length"),
    ((["o", "o"], ["pin", "pout"], ["pout", "pin"]), "attachment id lists must be injective"),
], ids=["lengths", "repeated id"])
def test_an_attachment_refuses_mismatched_id_lists(ids, message):
    with pytest.raises(PresentationError) as err:
        Attachment(*ids)
    assert type(err.value) is PresentationError and str(err.value) == message


def test_a_base_id_that_a_copy_would_take_is_refused():
    with pytest.raises(PresentationError,
                       match="base cell id 'a0c2.pout' is taken by copy 2 of slab cell "
                             "'pout' on attachment 0"):
        _ray_with_base_vertex("a0c2.pout")
    o, v = (Simplex((), Cell(0, i)) for i in ("o", "v"))
    base = FiniteSimplicialSet({0: ["o", "v"], 1: ["a1c1.seg"]}, {(1, "a1c1.seg"): (v, o)})
    with pytest.raises(PresentationError, match="'a1c1.seg' is taken by copy 1 of slab "
                                                "cell 'seg' on attachment 1"):
        sset.Exhaustion(base, ray().slab, ray().attachments * 2)


@pytest.mark.parametrize("vertex_id", [
    "a0c2.pin",    # the in-boundary is glued, never copied
    "a1c2.pout",   # there is no attachment 1
    "a0c0.pout",   # copies start at 1
    "a0c02.pout",  # copy numbers have no leading zeros
    "a0c2.seg",    # the copy of seg is an edge
    "a0c2.pout.x",  # no slab cell is called pout.x
    2,             # a copy's name is text
])
def test_base_ids_no_copy_takes_are_kept(vertex_id):
    exhaustion = _ray_with_base_vertex(vertex_id)
    assert exhaustion.truncate(3).complex.has_cell(Cell(0, vertex_id))


def test_stages_are_subcomplexes():
    pl = line()
    small = pl.truncate(1).complex
    big = pl.truncate(3).complex
    for n in small.dims():
        for c in small.cells(n):
            assert big.has_cell(c)


def _check_glue_depths(space):
    """The glue-depth rule on copy names gives each cell of stage 8 the
    first stage that has it, and None for names that no stage has."""
    stages = [space.truncate(d).complex for d in range(9)]
    for cell in stages[8].all_cells():
        assert maps._glue_depth(space, cell) == next(
            d for d, K in enumerate(stages) if K.has_cell(cell)), cell
    slab = list(space.slab.all_cells())
    absent = [Cell(c.dim, f"a{len(space.attachments)}c1.{c.id}") for c in slab]  # no such chain
    absent += [Cell(c.dim + 1, f"a0c1.{c.id}") for c in slab]  # a wrong dimension
    absent += [Cell(c.dim, f"a{a}c1.{c.id}")  # the in-boundary is glued, never copied
               for a, g in enumerate(space.gluings) for c in g.into]
    for cell in absent:
        if not space.base.has_cell(cell):
            assert maps._glue_depth(space, cell) is None and not stages[8].has_cell(cell), cell


every_exhaustion = pytest.mark.parametrize("build", [
    ray, line, plane, cylinder, balloon_ray, infinite_star, relay, long_tail, bead_string,
    lambda: dots_into_tail().source, lambda: ray_beside_a_star().target,
    lambda: _ray_with_base_vertex("a0c2.pin"),
], ids=["ray", "line", "plane", "cylinder", "balloon_ray", "infinite_star", "relay",
        "long_tail", "bead_string", "dots", "ray_and_star", "base_named_like_a_copy"])


@every_exhaustion
def test_the_glue_depth_rule_matches_stage_membership(build):
    _check_glue_depths(build())


def _check_copies(space):
    """Copies are glued without a check of their own, so stage 8 must pass
    every check of the constructor and keep its faces when rebuilt through
    it, and each cell of each copy must have the slab cell's faces carried
    along that copy's translation."""
    stage = space.truncate(8)
    K = stage.complex
    faces = {c: tuple(K.face(c, i) for i in range(c.dim + 1)) for c in K.all_cells() if c.dim}
    rebuilt = FiniteSimplicialSet({n: [c.id for c in K.cells(n)] for n in K.dims()}, faces)
    assert list(rebuilt.all_cells()) == list(K.all_cells())
    assert all(rebuilt.face(c, i) == fv for c, fs in faces.items() for i, fv in enumerate(fs))
    assert {d for _, d in space.translations} == set(range(1, 9))
    for trans in space.translations.values():
        for c in space.slab.all_cells():
            if c.dim:
                assert faces[trans[c]] == tuple(Simplex(fv.word, trans[fv.core])
                                                for fv in space.slab._faces[c]), c


@every_exhaustion
def test_copies_are_translations_of_the_checked_slab(build):
    _check_copies(build())


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


def _probed_local_finiteness(X, probe_depth):
    """The stage probe that decided local finiteness before the gluing walks
    did, kept as an oracle: every vertex of stage i must have equal stars at
    stages i+1 and i+2, for i up to ``probe_depth``.  It is wrong on walks
    longer than one copy (``long_tail``)."""
    stages = [X.truncate(i) for i in range(probe_depth + 3)]
    for i in range(probe_depth + 1):
        after = stages[i + 2]
        gained = {}
        for c in after.complex.all_cells():
            if stages[i + 1].complex.has_cell(c):
                continue
            for v in after.complex.vertices_of(c):
                gained.setdefault(v, []).append(c.id)
        for v in stages[i].complex.cells(0):
            if v in gained:
                return sset.LocalFinitenessReport(
                    ok=False,
                    witness=f"vertex {v.id!r} keeps gaining simplices (e.g. {sorted(gained[v])[:3]})",
                    notes=[f"star grew between stages {i + 1} and {i + 2}"],
                )
    deepest = stages[probe_depth + 2].complex
    sizes = {v.id: len(deepest.star(v)) for v in stages[probe_depth].complex.cells(0)}
    return sset.LocalFinitenessReport(
        ok=True, max_star=max(sizes.values(), default=0), star_sizes=sizes,
        notes=[f"stars stabilized across stages 1..{probe_depth + 2}"])


LOCAL_FINITENESS_GOLDEN = json.loads(
    (Path(__file__).parent / "local_finiteness_golden.json").read_text())
_PROBED = {"ray": ray, "line": line, "plane": plane, "cylinder": cylinder,
           "balloon_ray": balloon_ray, "relay": relay, "infinite_star": infinite_star}


@pytest.mark.parametrize("key", sorted(LOCAL_FINITENESS_GOLDEN))
def test_local_finiteness_reports_are_pinned(key):
    """The whole report, witness, notes and star sizes included, at each
    probe depth of the oracle."""
    name, depth = key.split()
    report = _probed_local_finiteness(_PROBED[name](), int(depth))
    assert repr(report) == LOCAL_FINITENESS_GOLDEN[key]


@pytest.mark.parametrize("key", sorted(k for k in LOCAL_FINITENESS_GOLDEN
                                       if k.endswith(" 3") or k.startswith("infinite_star")))
def test_local_finiteness_is_read_from_the_gluing(key):
    """The library gives the oracle's report at probe depth 3, and its
    refusal of the infinite star, from the walks."""
    name, _ = key.split()
    assert repr(is_locally_finite(_PROBED[name]())) == LOCAL_FINITENESS_GOLDEN[key]


def test_long_walks_are_locally_finite():
    """b1 gains cells in copies 1 and 2 and then leaves; the probe took the
    second gain for a star that keeps growing."""
    space = long_tail()
    assert not _probed_local_finiteness(space, 3).ok
    report = is_locally_finite(space)
    assert report.ok
    assert report.notes == ["stars stabilized across stages 1..6"]
    stars = _stars(space.truncate(24).complex, space.truncate(3).complex.cells(0))
    assert report.star_sizes == {v.id: n for v, n in stars.items()}
    assert homology(space).groups == {0: AbelianGroup(2), 1: AbelianGroup(0)}


def test_a_kept_vertex_without_added_cells_is_locally_finite():
    assert is_locally_finite(bead_string()).ok


def _stars(K, vertices) -> dict:
    """Star sizes by definition: the cells whose vertex closure holds v."""
    counts = Counter(v for x in K.all_cells() for v in K.vertices_of(x))
    return {v: counts[v] for v in vertices}


@settings(max_examples=200, deadline=None)
@given(gluings())
def test_local_finiteness_matches_stars_on_random_gluings(space):
    """With at most four in-positions a cycle has at most four positions
    and a walk at most four copies, so a star of stage 8 still growing
    between stages 16 and 24 grows for ever, and one that is not was final
    by stage 12."""
    vertices = space.truncate(8).complex.cells(0)
    before = _stars(space.truncate(16).complex, vertices)
    after = _stars(space.truncate(24).complex, vertices)
    growing = [v for v in vertices if after[v] > before[v]]
    report = is_locally_finite(space)
    assert report.ok == (not growing)
    if report.ok:
        early = space.truncate(3).complex.cells(0)
        assert report.star_sizes == {v.id: n for v, n in _stars(space.truncate(24).complex,
                                                                 early).items()}
    else:
        assert any(report.witness.startswith(f"vertex {v.id!r} ") for v in growing)


@settings(max_examples=100, deadline=None)
@given(gluings())
def test_the_glue_depth_rule_matches_stage_membership_on_random_gluings(space):
    _check_glue_depths(space)


@settings(max_examples=100, deadline=None)
@given(gluings())
def test_copies_are_translations_of_the_checked_slab_on_random_gluings(space):
    _check_copies(space)


def _check_gluings(space):
    """Each chain's ``Gluing`` against the stages it builds, in copies 1 to
    ``longest + 3``: every cell it has ``added`` is new in each copy under
    its copy name, every key of ``cycles`` is its base cells in turn, and
    every other in-cell lands on a cell glued at most ``longest`` copies
    before."""
    last = space.longest + 3
    turns = max((len(b) for g in space.gluings for b in g.cycles.values()), default=1)
    stages = [space.truncate(d) for d in range(last + turns)]
    first = {c: stage.depth for stage in reversed(stages) for c in stage.complex.all_cells()}
    named = lambda X, ids: tuple(next(c for c in X.all_cells() if c.id == i) for i in ids)
    assert [(g.base, g.into, g.out) for g in space.gluings] == [
        (named(space.base, att.base_ids), named(space.slab, att.slab_in_ids),
         named(space.slab, att.slab_out_ids)) for att in space.attachments]
    for a, g in enumerate(space.gluings):
        assert g.added == tuple(c for c in space.slab.all_cells() if c not in g.into)
        for d in range(1, last + 1):
            trans = space._translation(a, d)
            assert [trans[c] for c in g.added] == [Cell(c.dim, f"a{a}c{d}.{c.id}") for c in g.added]
            assert all(first[trans[c]] == d for c in g.added)
            for c, base in g.cycles.items():
                turn = [space._translation(a, d + i)[c] for i in range(len(base))]
                assert trans[c] in base and sorted(turn) == sorted(base), (a, d, c)
            for c in g.into:
                if c not in g.cycles:
                    assert d - space.longest <= first[trans[c]] < d, (a, d, c)


@every_exhaustion
def test_the_gluing_record_matches_the_stages(build):
    _check_gluings(build())


@settings(max_examples=100, deadline=None)
@given(gluings())
def test_the_gluing_record_matches_the_stages_on_random_gluings(space):
    _check_gluings(space)


def _check_the_report_is_a_snapshot(space, fresh):
    """Star counts read after a run has glued stages past the count's own
    equal those of a report on a fresh copy of the space."""
    report = is_locally_finite(space)
    try:
        bm_homology(space, window=6)
    except NonStabilizationError:
        pass
    except SimplicialError:
        assert not report.ok
    sizes, largest = report.star_sizes, report.max_star
    again = is_locally_finite(fresh)
    assert (sizes, largest) == (again.star_sizes, again.max_star)
    assert report == again and repr(report) == repr(again)


@every_exhaustion
def test_the_local_finiteness_report_is_a_snapshot(build):
    _check_the_report_is_a_snapshot(build(), build())


@settings(max_examples=50, deadline=None)
@given(gluings())
def test_the_local_finiteness_report_is_a_snapshot_on_random_gluings(space):
    _check_the_report_is_a_snapshot(
        space, Exhaustion(space.base, space.slab, space.attachments, name=space.name))


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


def test_a_stage_refuses_the_star_of_a_vertex_glued_after_it():
    space = ray()
    vertex = next(c for c in space.truncate(2).complex.cells(0)
                  if not space.truncate(1).complex.has_cell(c))
    assert space.truncate(2).complex.star(vertex)
    with pytest.raises(SimplicialError, match="unknown cell"):
        space.truncate(1).complex.star(vertex)


def test_star_index_matches_the_definition_on_finite_complexes():
    for X in (point(), circle(), torus(), rp2(), D2, sphere(3)):
        for v, star in _stars_by_definition(X).items():
            assert X.star(v) == star
    with pytest.raises(SimplicialError, match="unknown cell"):
        D2.star(Cell(0, "elsewhere"))
    with pytest.raises(SimplicialError, match="0-simplices"):
        D2.star(Cell(1, "0.1"))


# ------------------------------------------------------- stage transitions

def _stage(space, depth: int, relative: bool) -> chainalg.StageComplex:
    """A new stage complex of ``space`` at ``depth``, relative to its
    frontier or not, which has presented nothing yet."""
    trunc = space.truncate(depth)
    return chainalg.StageComplex(trunc.complex, frozenset(trunc.frontier if relative else ()))


def _chain_data(space, depth: int, relative: bool, top: int) -> list:
    """Stage ``depth``'s basis and boundary matrix (rows: the basis a degree
    below) in degrees 0..top, as the theories present them."""
    stage = _stage(space, depth, relative)
    return [(stage.basis(n), stage.boundary(n)) for n in range(top + 1)]


def _transition(source: tuple, target: tuple) -> IntMatrix:
    """A transition's 0/1 matrix on one degree: each source basis cell to
    itself where the target basis has it, to zero where it does not."""
    at = {c: i for i, c in enumerate(target)}
    rows = [{} for _ in target]
    for j, c in enumerate(source):
        if c in at:
            rows[at[c]][j] = 1
    return IntMatrix.from_entries(len(target), len(source), rows)


def _noncommuting_degrees(source: list, target: list) -> list:
    """The degrees n with ∂_target·T_n != T_{n-1}·∂_source."""
    T = [_transition(s, t) for (s, _), (t, _) in zip(source, target)]
    return [n for n in range(1, len(source))
            if target[n][1] @ T[n] != T[n - 1] @ source[n][1]]


def _check_transitions(space, deepest: int):
    """Every inclusion of stages 0..deepest, and every projection of their
    frontier-relative complexes, commutes with the boundary in every degree
    up to the top degree plus one; an inclusion keeps every basis cell."""
    top = max(space.base.top_dim, space.slab.top_dim) + 1
    for relative in (False, True):
        stages = [_chain_data(space, d, relative, top) for d in range(deepest + 1)]
        for small, large in zip(stages, stages[1:]):
            if relative:
                assert _noncommuting_degrees(large, small) == []
            else:
                assert all(set(s) <= set(t) for (s, _), (t, _) in zip(small, large))
                assert _noncommuting_degrees(small, large) == []


@every_exhaustion
def test_stage_transitions_are_chain_maps(build):
    _check_transitions(build(), 5)


@settings(max_examples=200, deadline=None)
@given(gluings())
def test_stage_transitions_are_chain_maps_on_random_gluings(space):
    _check_transitions(space, 4)


def _rotate(data, vertex, edge):
    for row in data:
        row[:] = row[1:] + row[:1]


def _copy_2_edge_meets_the_origin(data, vertex, edge):
    data[vertex["o"]][edge["a0c2.seg"]] = 1


def _copy_1_edge_meets_copy_2_s_far_vertex(data, vertex, edge):
    data[vertex["a0c2.pout"]][edge["a0c1.seg"]] = 1


@pytest.mark.parametrize("plant, depth, relative, failing", [
    (_rotate, 2, False, {(1, 2), (2, 3)}),
    (_rotate, 2, True, {(2, 1), (3, 2)}),
    # off the frontier copy 2 is glued along: the inclusion out of stage 2,
    # and the projections, which keep the edge of copy 2 at stage 2 only
    (_copy_2_edge_meets_the_origin, 2, False, {(2, 3)}),
    (_copy_2_edge_meets_the_origin, 2, True, {(2, 1), (3, 2)}),
    # the far vertex is on stage 2's frontier, a row stage 2's relative
    # complex drops; stage 3 keeps it, and projecting stage 4 onto it sees it
    (_copy_1_edge_meets_copy_2_s_far_vertex, 2, False, {(1, 2), (2, 3)}),
    (_copy_1_edge_meets_copy_2_s_far_vertex, 3, True, {(4, 3)}),
], ids=["rotated", "rotated-relative", "origin", "origin-relative", "far-vertex",
        "far-vertex-relative"])
def test_planted_faults_fail_the_transition_oracle(plant, depth, relative, failing):
    """A fault planted into a copy of one stage's degree-1 boundary matrix of
    the line is seen on the transitions into and out of that stage (source,
    target) that it breaks, in degree 1."""
    space = line()
    stages = [_chain_data(space, d, relative, 2) for d in range(5)]
    (vertices, _), (edges, d1) = stages[depth][:2]
    data = [list(row) for row in d1.data]
    plant(data, {c.id: i for i, c in enumerate(vertices)}, {c.id: j for j, c in enumerate(edges)})
    stages[depth][1] = (edges, IntMatrix(d1.rows, d1.cols, data))
    pairs = [(d + 1, d) if relative else (d, d + 1) for d in range(4)]
    seen = {(a, b): _noncommuting_degrees(stages[a], stages[b]) for a, b in pairs}
    assert {pair for pair, degrees in seen.items() if degrees} == failing
    assert all(degrees in ([], [1]) for degrees in seen.values())


# ------------------------------------------------ universal coefficients

def _uct_mismatches(make_stage) -> list:
    """The degrees n where H^n, presented on one new stage from
    ``make_stage``, is not Z^rank(H_n) + tors(H_{n-1}), with H presented on
    another: the universal coefficient theorem over Z, checked up to one
    degree past the top."""
    degrees = range(make_stage().complex.top_dim + 2)
    chains = make_stage().present(degrees, False)
    cochains = make_stage().present(degrees, True)
    return [n for n in degrees if cochains[n].group != AbelianGroup(
        chains[n].group.free_rank, chains[n - 1].group.torsion if n else ())]


def _moore_z3() -> FiniteSimplicialSet:
    """One vertex, two loops e and x and two triangles with boundaries
    2e - x and e + x, so H_1 = Z/3 and H^2 = Z/3."""
    v = Simplex((), Cell(0, "v"))
    e, x = Simplex((), Cell(1, "e")), Simplex((), Cell(1, "x"))
    return FiniteSimplicialSet(
        {0: ["v"], 1: ["e", "x"], 2: ["s", "t"]},
        {(1, "e"): (v, v), (1, "x"): (v, v),
         (2, "s"): (e, x, e), (2, "t"): (e, Simplex((0,), Cell(0, "v")), x)},
        name="moore(Z/3)")


_FINITE = [point, circle, torus, rp2, lambda: sphere(3), lambda: standard_simplex(3), _moore_z3]
_FINITE_IDS = ["point", "circle", "torus", "rp2", "sphere(3)", "delta(3)", "moore(Z/3)"]


@pytest.mark.parametrize("build", _FINITE, ids=_FINITE_IDS)
def test_cochains_obey_universal_coefficients_on_finite_complexes(build):
    X = build()
    assert _uct_mismatches(lambda: chainalg.StageComplex(X, frozenset())) == []


def _check_uct_on_stages(space, deepest: int):
    for depth in range(deepest + 1):
        for relative in (False, True):
            assert _uct_mismatches(lambda: _stage(space, depth, relative)) == [], \
                (depth, relative)


@every_exhaustion
def test_stage_cochains_obey_universal_coefficients(build):
    _check_uct_on_stages(build(), 3)


@settings(max_examples=50, deadline=None)
@given(gluings())
def test_stage_cochains_obey_universal_coefficients_on_random_gluings(space):
    _check_uct_on_stages(space, 3)


@pytest.mark.parametrize("build", _FINITE, ids=_FINITE_IDS)
def test_a_shifted_dual_presentation_fails_the_universal_coefficient_check(monkeypatch, build):
    """Cochains presented one degree up, as if H^n were H^{n+1}, are seen."""
    real = chainalg.StageComplex.present
    monkeypatch.setattr(chainalg.StageComplex, "present", lambda stage, degrees, dual: {
        n: real(stage, [n + 1], True)[n + 1] for n in degrees} if dual else real(stage, degrees, dual))
    X = build()
    assert _uct_mismatches(lambda: chainalg.StageComplex(X, frozenset())) != []


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


_D1, _PT = standard_simplex(1), Simplex((), Cell(0, "pt"))
_O = {Cell(0, "o"): Simplex((), Cell(0, "o"))}
_SEG = {Cell(0, "pout"): Simplex((), Cell(0, "pout")), Cell(1, "seg"): Simplex((), Cell(1, "seg"))}


def _ray_rule(target_attachment, base_map=_O, target=ray, **images):
    """A map out of the ray with one slab rule: the identity on its slab,
    but for the images given by slab cell id."""
    cell_map = {**_SEG, **{c: images[c.id] for c in _SEG if c.id in images}}
    return PeriodicMap(ray(), target(), base_map, [SlabRule(target_attachment, cell_map)])


def _v(name) -> Simplex:
    return Simplex((), Cell(0, name))


def _tail_collapse(**given) -> PeriodicMap:
    """``long_tail`` onto the edge 0.1: its base to 0, each copy's new
    vertex r or s and new edges onto 1 and the edge, with the in-boundary
    values given by slab cell id.  Copy c glues its p to b0 for c = 1, to b1
    for c = 2 (copy 1's q) and to copy c - 2's r from c = 3 on."""
    rule = {Cell(0, "r"): _v("1"), Cell(0, "s"): _v("1"),
            Cell(1, "ps"): Simplex((), Cell(1, "0.1")), Cell(1, "qr"): Simplex((), Cell(1, "0.1"))}
    rule.update((Cell(0, k), v) for k, v in given.items())
    return PeriodicMap(long_tail(), _D1, dict.fromkeys((Cell(0, "b0"), Cell(0, "b1")), _v("0")),
                       [SlabRule(None, rule)])


@pytest.mark.parametrize("build, message", [
    (lambda: SimplicialMap(_D1, point(), {Cell(0, "0"): _PT}),
     "map is missing a value for Cell(0, '1')"),
    (lambda: SimplicialMap(_D1, point(), dict.fromkeys(_D1.all_cells(), _PT)),
     "map sends Cell(1, '0.1') to Simplex('pt'), "
     "not a 1-simplex of FiniteSimplicialSet(point: 1x0)"),
    (lambda: PeriodicMap(line(), ray(), {Cell(0, "o"): Simplex((), Cell(0, "o"))},
                         fold_line_to_ray().slab_rules[:1]),
     "need one slab rule per attachment chain"),
    (lambda: PeriodicMap(ray(), ray(), {Cell(0, "o"): Simplex((), Cell(0, "o"))},
                         [SlabRule(0, {Cell(1, "seg"): Simplex((), Cell(1, "seg"))})]).level_map(1),
     "slab rule 0 is missing a value for Cell(0, 'pout')"),
    (lambda: family_is_controlled(line(), [Cell(0, "o")]), "unknown family kind list"),
    (lambda: _ray_rule(5), "slab rule 0 names no chain of the target: 5"),
    (lambda: _ray_rule(-1), "slab rule 0 names no chain of the target: -1"),
    (lambda: _ray_rule(True), "slab rule 0 names no chain of the target: True"),
    (lambda: _ray_rule("0"), "slab rule 0 names no chain of the target: '0'"),
    (lambda: _ray_rule(0, {Cell(0, "o"): _PT}, point),
     "slab rule 0 names no chain of the target: 0"),
    (lambda: _ray_rule(0, seg=Simplex((), Cell(1, "nope"))),
     "slab rule 0 sends Cell(1, 'seg') to Simplex('nope'), "
     "not a 1-simplex of FiniteSimplicialSet(segment: 2x0, 1x1)"),
    (lambda: _ray_rule(0, seg=Simplex((), Cell(0, "pout"))),
     "slab rule 0 sends Cell(1, 'seg') to Simplex('pout'), "
     "not a 1-simplex of FiniteSimplicialSet(segment: 2x0, 1x1)"),
    (lambda: _ray_rule(0, seg=Cell(1, "seg")),
     "slab rule 0 sends Cell(1, 'seg') to Cell(1, 'seg'), "
     "not a 1-simplex of FiniteSimplicialSet(segment: 2x0, 1x1)"),
    (lambda: _ray_rule(None), "slab rule 0 sends Cell(0, 'pout') to Simplex('pout'), "
                              "not a 0-simplex of FiniteSimplicialSet(origin: 1x0)"),
    (lambda: _ray_rule(None, {Cell(0, "o"): _PT}, point, pout=_PT),
     "slab rule 0 sends Cell(1, 'seg') to Simplex('seg'), "
     "not a 1-simplex of FiniteSimplicialSet(point: 1x0)"),
    (lambda: _ray_rule(0, {}), "base map is missing a value for Cell(0, 'o')"),
    (lambda: _ray_rule(0, {Cell(0, "o"): Simplex((), Cell(0, "a0c1.pout"))}),
     "base map sends Cell(0, 'o') to Simplex('a0c1.pout'), "
     "not a 0-simplex of FiniteSimplicialSet(origin: 1x0)"),
    (lambda: _ray_rule(None, _O, point), "base map sends Cell(0, 'o') to "
     "Simplex('o'), not a 0-simplex of FiniteSimplicialSet(point: 1x0)"),
    (lambda: PeriodicMap(ray(), ray(), _O, [SlabRule(0, {**_SEG, Cell(0, "pin"): "garbage"})]),
     "slab rule 0 sends Cell(0, 'pin') to 'garbage', "
     "not a 0-simplex of FiniteSimplicialSet(segment: 2x0, 1x1)"),
    (lambda: PeriodicMap(ray(), ray(), _O, [SlabRule(0, {**_SEG, Cell(0, "pin"): _v("pout")})]),
     "slab rule 0 sends Cell(0, 'pin') in copy 1 to Simplex('a0c1.pout'), "
     "but it is glued to Cell(0, 'o'), which goes to Simplex('o')"),
    (lambda: PeriodicMap(ray(), ray(), _O, [SlabRule(0, {
        Cell(0, "pin"): _v("pin"), Cell(0, "pout"): _v("pin"),
        Cell(1, "seg"): Simplex((0,), Cell(0, "pin"))})]),
     "slab rule 0 sends Cell(0, 'pin') in copy 2 to Simplex('a0c1.pout'), "
     "but it is glued to Cell(0, 'a0c1.pout'), which goes to Simplex('o')"),
    (lambda: _tail_collapse(q=_v("0")),
     "slab rule 0 sends Cell(0, 'q') in copy 2 to Simplex('0'), "
     "but it is glued to Cell(0, 'a0c1.r'), which goes to Simplex('1')"),
    (lambda: _tail_collapse(p=_v("0")),
     "slab rule 0 sends Cell(0, 'p') in copy 3 to Simplex('0'), "
     "but it is glued to Cell(0, 'a0c1.r'), which goes to Simplex('1')"),
    (lambda: maps.pairing(maps.Cochain(_D1, 0, {}), maps.Chain(_D1, 1, {})),
     "pairing needs a cochain and chain of the same degree"),
    (lambda: maps.pushforward(identity_simplicial_map(_D1), maps.Chain(D2, 0, {})),
     "chain does not live on the map's source"),
    (lambda: maps.pullback(identity_simplicial_map(_D1), maps.Cochain(D2, 0, {})),
     "cochain does not live on the map's target"),
    (lambda: maps.pullback_periodic(identity_simplicial_map(_D1), maps.Cochain(_D1, 0, {}), 0),
     "pullback_periodic needs a periodic map"),
], ids=["missing value", "image dimension", "rule count", "missing slab value",
        "family kind", "chain past the target's", "negative chain", "bool chain",
        "chain not an int", "chain of a finite target", "periodic image off the slab",
        "periodic image dimension", "periodic image not a simplex", "collapse off the base",
        "collapse image dimension", "empty base map", "base map off the base",
        "base map off a finite target", "in-boundary value not a simplex",
        "in-boundary value off its glued cell", "in-boundary value off in copy 2",
        "collapsed in-boundary value off in copy 2", "collapsed in-boundary value off in copy 3",
        "pairing across degrees", "pushforward off the source", "pullback off the target",
        "periodic pullback of a finite map"])
def test_maps_and_families_refuse_an_incomplete_description(build, message):
    with pytest.raises(SimplicialError) as err:
        build()
    assert type(err.value) is SimplicialError and str(err.value) == message


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
         "from ctlhom.maps import is_proper_map\n"
         "print(is_proper_map(cylinder_projection()).witness)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == PROJECTION_WITNESS + "\n"


FIXTURE_MAPS = {
    "fold_line_to_ray": fold_line_to_ray,
    "cylinder_projection": cylinder_projection,
    **{f"identity {name}": (lambda name=name: identity_on(name))
       for name in ("ray", "line", "plane", "cylinder")},
    "ray_onto_beads": ray_onto_beads,
    "dots_into_tail": dots_into_tail,
    "star_identity": star_identity,
    "ray_beside_a_star": ray_beside_a_star,
}


def _fibers(level, cells) -> dict:
    counts = Counter(level.mapping[c].core for c in level.source.all_cells())
    return {y: counts[y] for y in cells}


@pytest.mark.parametrize("name", sorted(FIXTURE_MAPS))
def test_properness_matches_fibers_on_level_maps(name):
    """Every walk of these targets is at most two copies long and every
    cycle one position, so a fiber over a cell of target stage 4 that
    changes between levels 8 and 16 grows for ever."""
    f = FIXTURE_MAPS[name]()
    target = f.target.truncate(4).complex if f.target_is_exhaustion else f.target
    cells = list(target.all_cells())
    settled = _fibers(f.level_map(8), cells) == _fibers(f.level_map(16), cells)
    assert is_proper_map(f).ok == settled


def test_maps_onto_a_kept_vertex_are_not_proper():
    """Every copy of the ray lands on o, which every copy of the locally
    finite bead string glues in at."""
    f = ray_onto_beads()
    assert is_locally_finite(f.target).ok
    report = proper_controlled_equivalence(f)
    assert report.proper_witness == "fiber over 'o' keeps growing: sizes [3, 5, 7, 9, 11, 13, 15, 17]"
    assert not report.controlled_ok and report.agree
    assert report.controlled_witness == "restricted fibers are infinite over Simplex('o')"


def test_image_family_in_a_target_that_is_not_locally_finite_is_not_controlled():
    """The identity is proper, but its images crowd the star of o; the
    equivalence holds only between locally finite spaces."""
    report = proper_controlled_equivalence(star_identity())
    assert report.proper_ok and not report.controlled_ok and not report.agree
    assert report.controlled_witness == ("image family member counts keep growing (vertex "
                                         "'o' keeps gaining simplices (e.g. ['a0c2.spoke']))")


def test_images_that_avoid_an_infinite_star_are_controlled():
    """The target's chain 1 crowds o, but only o and the first seg of the
    images meet o's star: the map is proper and controlled, though its
    target is not locally finite."""
    f = ray_beside_a_star()
    assert not is_locally_finite(f.target).ok
    report = proper_controlled_equivalence(f)
    assert report.proper_ok and report.controlled_ok and report.agree


def test_controlled_verdicts_read_no_stage(monkeypatch):
    """A true verdict comes from the gluing alone: no local-finiteness report
    and no stage past the base.  The report is refused where it is defined
    and in ``maps``, whose verdict code would read a binding of its own."""
    monkeypatch.setattr(sset, "is_locally_finite", None)
    monkeypatch.setattr(maps, "is_locally_finite", None, raising=False)
    X = infinite_star()
    assert family_is_controlled(X, AllCellsFamily(0))
    assert family_is_controlled(X, PerSlabFamily(slab_cells=(Cell(0, "tip"),)))
    fixtures = [fold_line_to_ray(), ray_beside_a_star(), dots_into_tail()]
    assert all(proper_controlled_equivalence(f).controlled_ok for f in fixtures)
    spaces = [X] + [Y for f in fixtures for Y in (f.source, f.target)]
    assert [len(Y._stages) for Y in spaces] == [1] * len(spaces)


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
    # the tower of a cell is the tower of its simplex
    assert family_is_controlled(ln, DegeneracyTowerFamily(Cell(1, "a1c2.seg"))) is False
    assert family_is_controlled(torus(), DegeneracyTowerFamily(Cell(0, "0"))) is False


def test_all_cells_family_needs_local_finiteness():
    assert not family_is_controlled(infinite_star(), AllCellsFamily(1))


def test_families_that_avoid_the_crowded_vertex_are_controlled():
    """Each tip of the infinite star is in one copy, and o's star holds no
    tip: at stage 6 every star holds exactly one 0-cell."""
    K = infinite_star().truncate(6).complex
    assert all(sum(x.dim == 0 for x in K.star(v)) == 1 for v in K.cells(0))
    assert family_is_controlled(infinite_star(), AllCellsFamily(0))
    assert family_is_controlled(infinite_star(), PerSlabFamily(slab_cells=(Cell(0, "tip"),)))
    assert not family_is_controlled(infinite_star(), PerSlabFamily(slab_cells=(Cell(1, "spoke"),)))


def test_per_slab_family_refuses_an_unknown_cell():
    for family in (PerSlabFamily(slab_cells=(Cell(0, "tip"),)),
                   PerSlabFamily(base_cells=(Cell(0, "pin"),))):
        with pytest.raises(SimplicialError, match="unknown cell"):
            family_is_controlled(line(), family)


@pytest.mark.parametrize("space,family", [
    (line, FiniteFamily([Cell(0, "nope")])),
    (line, FiniteFamily([Cell(0, "a0c3.pin")])),  # copies do not add their in-boundary
    (line, FiniteFamily([Cell(1, "a2c1.seg")])),  # the line has two chains
    (line, FiniteFamily([Simplex((0,), Cell(0, "nope"))])),
    (line, DegeneracyTowerFamily(Simplex((), Cell(3, "nope")))),
    (torus, FiniteFamily([Cell(0, "nope")])),
    (torus, PerSlabFamily(slab_cells=(Cell(0, "0"),))),  # a finite complex has no slab
    (torus, PerSlabFamily(base_cells=(Cell(0, "nope"),))),
], ids=["unknown", "in-boundary-copy", "third-chain", "degenerate", "tower", "finite-unknown",
        "finite-slab", "finite-base"])
def test_every_family_kind_refuses_a_cell_the_space_lacks(space, family):
    with pytest.raises(SimplicialError, match="^unknown cell in "):
        family_is_controlled(space(), family)


def test_families_name_the_cells_of_every_copy():
    assert family_is_controlled(line(), FiniteFamily([Cell(1, "a0c5.seg"), Cell(0, "a1c2.pout")]))
    assert family_is_controlled(torus(), PerSlabFamily(base_cells=(Cell(0, "0"),)))
    assert not family_is_controlled(torus(), DegeneracyTowerFamily(Simplex((), Cell(1, "0.1"))))
    with pytest.raises(SimplicialError, match="negative dimension"):
        family_is_controlled(line(), AllCellsFamily(-1))


def _growing(space, members) -> list:
    """The stage-8 vertices whose star meets more of the members (a set of
    simplices per depth) at stage 24 than at stage 16, counted by definition.
    With at most four in-positions per chain, as in ``gluings``, those are
    the stars that meet infinitely many members."""
    K = space.truncate(24).complex
    vertices = space.truncate(8).complex.cells(0)
    before, after = (Counter(v for y in members(depth) for v in K.vertices_of(y.core))
                     for depth in (16, 24))
    return [v for v in vertices if after[v] > before[v]]


@settings(max_examples=100, deadline=None)
@given(gluings(), st.data())
def test_controlled_families_match_member_counts_on_random_gluings(space, data):
    """All cells, all of one dimension, or a random per-slab selection."""
    cells = list(space.slab.all_cells())
    family = data.draw(st.one_of(
        st.sampled_from([AllCellsFamily(), AllCellsFamily(0), AllCellsFamily(1), AllCellsFamily(2)]),
        st.lists(st.sampled_from(cells), unique=True).map(
            lambda chosen: PerSlabFamily(slab_cells=chosen))))

    def members(depth):
        if isinstance(family, AllCellsFamily):
            chosen = [x for x in space.truncate(depth).complex.all_cells()
                      if family.dim in (None, x.dim)]
        else:
            chosen = [space.translations[(a, c)][x] for a in range(len(space.attachments))
                      for c in range(1, depth + 1) for x in family.slab_cells]
        return {Simplex((), x) for x in chosen}

    assert family_is_controlled(space, family) == (not _growing(space, members))


@settings(max_examples=100, deadline=None)
@given(gluings(), st.data())
def test_image_family_matches_member_counts_on_random_gluings(space, data):
    """Condition (1) on the inclusion of the exhaustion glued the same way
    from a random subcomplex of the slab (every vertex kept): proper, with
    no infinite fiber, so it is controlled exactly when its images, copies
    of the kept cells, crowd no star of the target."""
    kept = [c for c in space.slab.all_cells()
            if c.dim and data.draw(st.booleans(), label=c.id)]
    sub = facet_complex([c.id.split(".") for c in kept]
                        + [[v.id] for v in space.slab.cells(0)], name="sub-slab")
    identity = lambda X: {c: Simplex((), c) for c in X.all_cells()}
    f = PeriodicMap(Exhaustion(space.base, sub, space.attachments, name="sub"), space,
                    identity(space.base),
                    [SlabRule(a, identity(sub)) for a in range(len(space.attachments))])

    def members(depth):
        level = f.level_map(depth)
        return {level.mapping[c] for c in level.source.all_cells()}

    growing = _growing(space, members)
    report = proper_controlled_equivalence(f)
    assert report.proper_ok and report.controlled_ok == (not growing)
    if growing:
        assert any(report.controlled_witness.startswith(
            f"image family member counts keep growing (vertex {v.id!r} ") for v in growing)


@settings(max_examples=150, deadline=None)
@given(gluings(), st.data())
def test_in_boundary_values_are_refused_exactly_when_a_deep_copy_disagrees(space, data):
    """A map of a random gluing into itself, each chain's rule periodic
    (the identity on the cells copies add, into a random chain) or a
    collapse onto random base vertices, with values on random in-boundary
    vertices, drawn among those that agree in copy 1 where there are any:
    it is refused exactly when, in one of the first 30 copies, a given value
    differs from the image of the cell it is glued to, read off the map
    built without those values."""
    base = list(space.base.cells(0))
    identity = {c: Simplex((), c) for c in space.base.all_cells()}
    rules = []
    for g in space.gluings:
        at = data.draw(st.sampled_from([None, *range(len(space.gluings))]))
        rules.append(SlabRule(at, {c: Simplex((), c) if at is not None else Simplex(
            tuple(range(c.dim - 1, -1, -1)), data.draw(st.sampled_from(base))) for c in g.added}))
    plain = PeriodicMap(space, space, identity, rules)
    mapping = plain._images(30, plain._slab_images)

    def moved(rule, v, c):
        at = rule.target_attachment
        return v if at is None else Simplex(v.word, space.translations[(at, c)][v.core])

    given = []
    for a, (rule, g) in enumerate(zip(rules, space.gluings)):
        values = [Simplex((), v) for v in (base if rule.target_attachment is None
                                             else space.slab.cells(0))]
        given.append({})
        for cell in g.into:
            first = mapping[space.translations[(a, 1)][cell]]
            agree = [v for v in values if moved(rule, v, 1) == first]
            if data.draw(st.booleans()):
                given[a][cell] = data.draw(st.sampled_from(agree or values))
    disagree = any(mapping[space.translations[(a, c)][cell]] != moved(rule, v, c)
                   for a, (rule, values) in enumerate(zip(rules, given))
                   for c in range(1, 31) for cell, v in values.items())
    try:
        PeriodicMap(space, space, identity,
                    [SlabRule(r.target_attachment, {**r.cell_map, **values})
                     for r, values in zip(rules, given)])
    except SimplicialError as err:
        assert disagree and " but it is glued to " in str(err)
    else:
        assert not disagree
