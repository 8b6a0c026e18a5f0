import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ctlhom.chainalg import boundary_matrix
from ctlhom.corpus import SPACES, sphere, standard_simplex, torus
from ctlhom.snf import (TRANSFORMS, IntMatrix, MatrixError, SmithDecomposition, _Worker,
                        invariant_factors, smith_normal_form)
from ctlhom.sset import FiniteSimplicialSet

GOLDEN = json.loads((Path(__file__).parent / "snf_golden.json").read_text())


@st.composite
def int_matrices(draw, max_size=5, max_entry=9):
    rows = draw(st.integers(0, max_size))
    cols = draw(st.integers(0, max_size))
    data = tuple(
        tuple(draw(st.integers(-max_entry, max_entry)) for _ in range(cols))
        for _ in range(rows)
    )
    return IntMatrix(rows, cols, data)


@st.composite
def sparse_int_matrices(draw, max_size=14, max_entry=9, max_density=0.3):
    """Matrices with at most ``max_density`` of their entries nonzero."""
    rows = draw(st.integers(0, max_size))
    cols = draw(st.integers(0, max_size))
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    nonzero = draw(st.dictionaries(
        st.sampled_from(cells) if cells else st.nothing(),
        st.integers(1, max_entry).flatmap(lambda v: st.sampled_from((v, -v))),
        max_size=int(max_density * len(cells)),
    ))
    data = tuple(tuple(nonzero.get((i, j), 0) for j in range(cols))
                 for i in range(rows))
    return IntMatrix(rows, cols, data)


@st.composite
def int_lists(draw, rows, cols):
    """A rows x cols list of lists.  Entries within ±1 or ±9: with ±1,
    zeros, empty rows and products that cancel to zero are common."""
    bound = draw(st.sampled_from((1, 9)))
    return [[draw(st.integers(-bound, bound)) for _ in range(cols)]
            for _ in range(rows)]


shapes = st.integers(0, 5)


@given(shapes, shapes, shapes, st.data())
def test_product_matches_the_triple_loop(n, m, p, data):
    a = data.draw(int_lists(n, m))
    b = data.draw(int_lists(m, p))
    expected = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(m))
                           for j in range(p)) for i in range(n))
    product = IntMatrix(n, m, a) @ IntMatrix(m, p, b)
    assert (product.rows, product.cols, product.data) == (n, p, expected)


@given(shapes, shapes, st.data())
@example(0, 4, None)
@example(4, 0, None)
def test_a_product_with_an_identity_is_the_plain_product(n, m, data):
    """An identity is a plain sparse matrix: a product with it, on either
    side, equals the other factor, 0xn and nx0 included."""
    a = IntMatrix(n, m, data.draw(int_lists(n, m)) if data else [[0] * m] * n)
    left, right = IntMatrix.identity(n), IntMatrix.identity(m)
    plain_left = IntMatrix.from_entries(n, n, ({i: 1} for i in range(n)))
    assert type(left) is IntMatrix and left == plain_left and hash(left) == hash(plain_left)
    assert left @ a == a == a @ right
    assert left @ left == left


def test_untouched_transforms_are_marked_as_identities():
    """A reduction that moves no line leaves its transforms the identity."""
    zero = smith_normal_form(IntMatrix.zeros(3, 2))
    assert [getattr(zero, t) for t in TRANSFORMS] == [
        IntMatrix.identity(3), IntMatrix.identity(3), IntMatrix.identity(2), IntMatrix.identity(2)]
    diagonal = smith_normal_form(IntMatrix.from_rows([[1, 0], [0, 2], [0, 0]]))
    assert diagonal.u == diagonal.u_inv == IntMatrix.identity(3)
    assert diagonal.v == diagonal.v_inv == IntMatrix.identity(2)
    swapped = smith_normal_form(IntMatrix.from_rows([[0, 1], [1, 0]]))
    assert swapped.u == swapped.u_inv == IntMatrix.identity(2)  # the pivot is in row 0
    assert swapped.v == IntMatrix.from_rows([[0, 1], [1, 0]])
    assert swapped.verify()


@given(shapes, shapes, st.data())
def test_apply_matches_the_plain_sum(n, m, data):
    a = data.draw(int_lists(n, m))
    v = data.draw(int_lists(1, m))[0]
    expected = tuple(sum(a[i][k] * v[k] for k in range(m)) for i in range(n))
    assert IntMatrix(n, m, a).apply(v) == expected


@given(shapes, shapes, st.data())
def test_dense_view_transpose_and_zero_test(n, m, data):
    rows = data.draw(int_lists(n, m))
    mat = IntMatrix(n, m, rows)
    assert mat.data == tuple(map(tuple, rows))
    assert IntMatrix(mat.rows, mat.cols, mat.data) == mat
    assert mat.transpose().data == tuple(
        tuple(rows[i][j] for i in range(n)) for j in range(m))
    assert mat.transpose().transpose() == mat
    assert mat.is_zero() == all(x == 0 for row in rows for x in row)


def test_empty_shapes():
    wide, tall = IntMatrix.zeros(0, 4), IntMatrix.zeros(4, 0)
    assert wide.data == () and tall.data == ((),) * 4
    assert wide.transpose() == tall and tall.transpose() == wide
    assert wide != IntMatrix.zeros(0, 3) and tall != IntMatrix.zeros(3, 0)
    assert tall @ wide == IntMatrix.zeros(4, 4)
    assert (wide @ tall).data == () and (tall @ wide).data == ((0,) * 4,) * 4
    assert wide.is_zero() and tall.is_zero()
    assert tall.apply(()) == (0,) * 4 and wide.apply((1, 2, 3, 4)) == ()


def test_repr_shows_small_matrices_in_full():
    assert repr(IntMatrix.from_rows([[1, 0], [0, -2]])) == "IntMatrix([1 0; 0 -2])"
    assert repr(IntMatrix.zeros(7, 6)) == "IntMatrix(7x6)"


def test_matmul_and_identity():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert a @ IntMatrix.identity(2) == a
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).row(0) == (2, 1)


def test_shape_mismatch_raises():
    a = IntMatrix.from_rows([[1, 2]])
    with pytest.raises(MatrixError):
        a @ a


def test_pinned_invariant_factors():
    dec = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert dec.invariant_factors == (2, 4)
    assert dec.verify()


def test_diagonal_matrix_gets_sorted_into_divisibility():
    dec = smith_normal_form(IntMatrix.from_rows([[6, 0], [0, 4]]))
    assert dec.invariant_factors == (2, 12)


def test_zero_and_empty_matrices():
    assert smith_normal_form(IntMatrix.zeros(3, 2)).invariant_factors == ()
    assert smith_normal_form(IntMatrix.zeros(0, 4)).rank == 0
    assert smith_normal_form(IntMatrix.zeros(4, 0)).rank == 0


@st.composite
def line_operations(draw):
    """A matrix up to 5x5, empty shapes included, and a list of (side,
    operation, arguments) on its rows and columns."""
    m = draw(int_matrices(max_entry=4))
    ops = []
    for side in draw(st.lists(st.sampled_from(("rows", "cols")), max_size=12)):
        n = m.rows if side == "rows" else m.cols
        if n == 0:
            continue
        op = draw(st.sampled_from(("swap", "add", "negate")))
        i = draw(st.integers(0, n - 1))
        if op == "negate":
            ops.append((side, op, (i,)))
        elif op == "swap":
            ops.append((side, op, (i, draw(st.integers(0, n - 1)))))
        elif n > 1:
            j = draw(st.integers(0, n - 1).filter(lambda j: j != i))
            ops.append((side, op, (i, j, draw(st.integers(-3, 3)))))
    return m, ops


@given(line_operations())
@settings(max_examples=300)
def test_every_line_operation_keeps_the_certificates(case):
    """After each swap, add or negate, on rows or on columns: the row view is
    the transpose of the column view, U m V is the workspace, and U^-1, V^-1
    are the inverses of U, V."""
    m, ops = case
    w = _Worker(m, TRANSFORMS)
    for side, op, args in ops:
        getattr(getattr(w, side), op)(*args)
        rows = IntMatrix.from_entries(m.rows, m.cols, w.rows.lines)
        assert IntMatrix.from_entries(m.cols, m.rows, w.cols.lines) == rows.transpose()
        u = IntMatrix.from_entries(m.rows, m.rows, w.rows.along)
        u_inv = IntMatrix.from_entries(m.rows, m.rows, w.rows.across).transpose()
        v = IntMatrix.from_entries(m.cols, m.cols, w.cols.along).transpose()
        v_inv = IntMatrix.from_entries(m.cols, m.cols, w.cols.across)
        assert u @ m @ v == rows
        assert u @ u_inv == IntMatrix.identity(m.rows)
        assert v @ v_inv == IntMatrix.identity(m.cols)


@given(int_matrices())
@settings(max_examples=200)
def test_decomposition_certificates(m):
    """U m V = D with unimodular U, V (checked against tracked inverses)."""
    dec = smith_normal_form(m)
    assert dec.verify()


@given(sparse_int_matrices())
@settings(max_examples=200)
def test_sparse_decomposition_certificates(m):
    """Large sparse matrices: pivots far from the corner, empty columns."""
    assert smith_normal_form(m).verify()


# a 13x13 draw whose reductions overran hypothesis's default 200 ms deadline;
# the deadline is hypothesis's default, not a claim about the code
SLOW_SPARSE = IntMatrix.from_entries(13, 13, (dict(row) for row in [
    [(0, 5), (1, 4), (6, 7), (7, 2)], [(2, 1), (11, 9), (12, -6)], [(1, 1), (5, 1)],
    [(6, 1), (8, 1), (10, 2)], [(5, 6), (6, 2)], [(7, 2)], [(0, 3), (9, 3), (12, 1)],
    [(12, -2)], [(0, -2), (1, 1), (4, 3), (12, 1)], [(1, 1), (6, 2), (9, 1), (10, 1)],
    [(9, 1), (12, 2)], [(0, 1), (2, 1)], [(4, 3), (5, 1)],
]))


@given(sparse_int_matrices(), st.sets(st.sampled_from(TRANSFORMS)))
@example(SLOW_SPARSE, set(TRANSFORMS))
@settings(max_examples=200, deadline=None)
def test_tracking_a_subset_keeps_the_pivots(m, track):
    """A reduction that tracks only some transforms makes the same pivots:
    the same D, the same tracked transforms, and None for the others."""
    full = smith_normal_form(m)
    part = smith_normal_form(m, tuple(track))
    assert part.matrix is m
    assert part.diagonal == full.diagonal
    for name in TRANSFORMS:
        assert getattr(part, name) == (getattr(full, name) if name in track else None)


def test_partial_reductions_refuse_verification_and_unknown_names():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    with pytest.raises(MatrixError, match="all four transforms"):
        smith_normal_form(m, ("u", "v")).verify()
    with pytest.raises(MatrixError, match="unknown transforms"):
        smith_normal_form(m, ("w",))


@pytest.mark.parametrize("make, message", [
    (lambda: IntMatrix(-1, 0, []), "negative matrix shape"),
    (lambda: IntMatrix(1, 2, [[1]]), "data shape does not match 1x2"),
    (lambda: IntMatrix.from_entries(2, 2, [{}]), "1 rows do not fit 2x2"),
    (lambda: IntMatrix.identity(2).apply((1,)), "vector length 1 != 2 columns"),
], ids=["negative shape", "ragged data", "too few entry rows", "vector length"])
def test_matrices_refuse_what_does_not_fit(make, message):
    with pytest.raises(MatrixError) as err:
        make()
    assert type(err.value) is MatrixError and str(err.value) == message


def _bumped(m: IntMatrix) -> IntMatrix:
    """m with 1 added to its top left entry."""
    return IntMatrix(m.rows, m.cols, [[x + (i == j == 0) for j, x in enumerate(row)]
                                      for i, row in enumerate(m.data)])


@pytest.mark.parametrize("transform", ["u", "u_inv", "v_inv"])
def test_verify_refuses_a_perturbed_transform(transform):
    dec = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert dec.verify()
    assert not replace(dec, **{transform: _bumped(getattr(dec, transform))}).verify()


@pytest.mark.parametrize("rows", [[[1, 1], [0, 1]], [[2, 0], [0, 3]], [[0, 0], [0, 1]]],
                         ids=["off the diagonal", "2 does not divide 3", "zero before nonzero"])
def test_verify_refuses_a_diagonal_out_of_smith_form(rows):
    """U = V = I and D = M, so only the shape of D can fail."""
    m, eye = IntMatrix.from_rows(rows), IntMatrix.identity(2)
    assert not SmithDecomposition(m, m, eye, eye, eye, eye).verify()


def _golden_input(name, case):
    if name.startswith("torus_boundary_"):
        return boundary_matrix(torus(), int(name.rsplit("_", 1)[1]))
    return IntMatrix(*case["shape"], case["matrix"])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_decomposition_is_pinned(name):
    """The reduction's pivoting order fixes U, V and their inverses, and with
    them every generator a presentation reports: they must not drift."""
    case = GOLDEN[name]
    m = _golden_input(name, case)
    assert m.data == tuple(map(tuple, case["matrix"]))
    dec = smith_normal_form(m)
    for field in ("diagonal", "u", "u_inv", "v", "v_inv"):
        assert getattr(dec, field).data == tuple(map(tuple, case[field])), field


@given(int_matrices())
def test_invariant_factor_chain(m):
    factors = smith_normal_form(m).invariant_factors
    assert all(f > 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


@given(int_matrices(max_size=4))
def test_transpose_has_the_same_factors(m):
    assert (smith_normal_form(m).invariant_factors
            == smith_normal_form(m.transpose()).invariant_factors)


@st.composite
def factor_cases(draw):
    """Matrices of shape 0..8 with entries in -4..4, with some rows and
    columns zeroed, and some with every +-1 doubled so no entry is a unit."""
    m = draw(int_matrices(max_size=8, max_entry=4))
    zero_rows = draw(st.sets(st.integers(0, 7)))
    zero_cols = draw(st.sets(st.integers(0, 7)))
    no_units = draw(st.booleans())
    return IntMatrix(m.rows, m.cols, (
        (0 if i in zero_rows or j in zero_cols else 2 * x if no_units and abs(x) == 1 else x
         for j, x in enumerate(row)) for i, row in enumerate(m.data)))


@given(factor_cases())
@example(IntMatrix.zeros(0, 0))
@example(IntMatrix.zeros(3, 5))
@example(IntMatrix.from_rows([[2, 4], [6, 8]]))
@example(IntMatrix.from_rows([[0, 1, 0], [0, 0, 0], [3, 2, 0]]))
@settings(max_examples=300)
def test_free_pivots_give_the_smith_factors(m):
    """Invariant factors do not depend on the pivots, so unit elimination
    with its own pivot order finds those of the fixed-pivot reduction."""
    assert invariant_factors(m) == smith_normal_form(m, ()).invariant_factors


def test_free_pivots_give_the_smith_factors_of_every_finite_boundary():
    """Every boundary matrix, and its transpose, of the finite corpus."""
    spaces = [build() for build, _ in SPACES.values()]
    spaces = [X for X in spaces if isinstance(X, FiniteSimplicialSet)]
    spaces += [sphere(n) for n in range(2, 9)] + [standard_simplex(n) for n in range(2, 8)]
    assert len(spaces) == 17
    for X in spaces:
        for n in range(X.top_dim + 2):
            for m in (boundary_matrix(X, n), boundary_matrix(X, n).transpose()):
                assert invariant_factors(m) == smith_normal_form(m, ()).invariant_factors, \
                    (X.name, n)
