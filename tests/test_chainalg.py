import pytest
from hypothesis import given, settings, strategies as st

from ctlhom import chainalg
from ctlhom.chainalg import (
    INTEGER,
    RATIONAL,
    THEORY_DRIVERS,
    AbelianGroup,
    Chain,
    Cochain,
    CoefficientError,
    NonStabilizationError,
    StageComplex,
    TRIVIAL_GROUP,
    bm_homology,
    boundary,
    boundary_matrix,
    chain_basis,
    coboundary,
    cohomology,
    cohomology_c,
    convert_group,
    euler_characteristic,
    homology,
    induced_on_homology,
    invariant_chain,
    pairing,
    pairing_matrix,
    parse_coefficients,
    present_homology,
    pullback,
    pullback_periodic,
    pushforward,
    render_group,
    unnormalized_boundary_matrix,
)
from ctlhom.corpus import (
    balloon_ray,
    circle,
    cylinder,
    cylinder_projection,
    fold_line_to_ray,
    line,
    plane,
    point,
    ray,
    rp2,
    sphere,
    torus,
)
from ctlhom.ctlset import ControlError
from ctlhom.sset import (
    Cell,
    FiniteSimplicialSet,
    Simplex,
    SimplicialError,
    SimplicialMap,
    standard_simplex,
)
from ctlhom.snf import IntMatrix, MatrixError


# ------------------------------------------------------------- coefficients

def test_parse_coefficients():
    assert parse_coefficients("z") == INTEGER
    assert parse_coefficients("q") == RATIONAL
    assert parse_coefficients("z/6").modulus == 6
    for bad in ("z/x", "z/1", "z/0", "r", ""):
        with pytest.raises(CoefficientError):
            parse_coefficients(bad)


def test_invariant_chain_merges_coprime_orders():
    assert invariant_chain([2, 3]) == (6,)
    assert invariant_chain([2, 2, 4]) == (2, 2, 4)
    assert invariant_chain([4, 6]) == (2, 12)
    assert invariant_chain([]) == ()


MERSENNE_61 = 2**61 - 1


def test_invariant_chain_of_a_large_prime_modulus():
    # a 61-bit prime, which trial division of the orders would not get through
    assert invariant_chain([MERSENNE_61, MERSENNE_61, 1]) == (MERSENNE_61, MERSENNE_61)
    with pytest.raises(ValueError):
        invariant_chain([2, 0])


def test_homology_with_a_large_prime_modulus():
    r = homology(torus(), parse_coefficients(f"z/{MERSENNE_61}"))
    assert [r.group(n) for n in range(3)] == [AbelianGroup(1), AbelianGroup(2), AbelianGroup(1)]


def test_abelian_group_requires_a_divisibility_chain():
    AbelianGroup(1, (2, 4))
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))


def test_render_group():
    assert render_group(TRIVIAL_GROUP) == "0"
    assert render_group(AbelianGroup(2, (2,))) == "Z^2 + Z/2"
    assert render_group(AbelianGroup(3), RATIONAL) == "Q^3"
    assert render_group(AbelianGroup(2, (2,)), parse_coefficients("z/6")) \
        == "(Z/6)^2 + Z/2"
    assert render_group(AbelianGroup(1), parse_coefficients("z/6")) == "Z/6"
    assert render_group(AbelianGroup(1), RATIONAL) == "Q"


def test_convert_group_rational_kills_torsion():
    g = convert_group(AbelianGroup(2, (2, 6)), TRIVIAL_GROUP, RATIONAL)
    assert g == AbelianGroup(2)


def test_convert_group_mod_two_picks_up_tor():
    # Z in this degree, Z/2 in the neighbor: rank two over Z/2
    g = convert_group(AbelianGroup(1), AbelianGroup(0, (2,)),
                      parse_coefficients("z/2"))
    assert g == AbelianGroup(2)


def test_convert_group_partial_torsion():
    # Z/2 tensored with Z/4 stays Z/2: torsion, not a free Z/4 summand
    g = convert_group(AbelianGroup(0, (2,)), TRIVIAL_GROUP,
                      parse_coefficients("z/4"))
    assert g == AbelianGroup(0, (2,))


# -------------------------------------------------------- boundary matrices

CORPUS = [point(), circle(), standard_simplex(2), sphere(2), torus(), rp2()]


@pytest.mark.parametrize("X", CORPUS,
                         ids=["point", "circle", "delta2", "sphere2", "torus", "rp2"])
def test_boundary_squares_to_zero(X):
    for n in range(1, 5):
        d_n = boundary_matrix(X, n)
        d_next = boundary_matrix(X, n + 1)
        assert (d_n @ d_next).is_zero()


def test_degree_zero_boundary_is_zero():
    assert boundary_matrix(circle(), 0).is_zero()


def test_unnormalized_boundary_also_squares_to_zero():
    X = standard_simplex(2)
    for n in range(1, 4):
        d_n = unnormalized_boundary_matrix(X, n)
        d_next = unnormalized_boundary_matrix(X, n + 1)
        assert (d_n @ d_next).is_zero()


# ------------------------------------------------------------ presentations

def test_circle_presentation():
    X = circle()
    h1 = present_homology(boundary_matrix(X, 1), boundary_matrix(X, 2))
    assert h1.group == AbelianGroup(1)
    assert h1.generators[0] in ((1,), (-1,))


def test_rp2_torsion_class_reduces_mod_two():
    X = rp2()
    h1 = present_homology(boundary_matrix(X, 1), boundary_matrix(X, 2))
    assert h1.group == AbelianGroup(0, (2,))
    g = h1.generators[0]
    assert h1.reduce(g) == (1,)
    assert h1.reduce(tuple(2 * a for a in g)) == (0,)


def test_reduce_rejects_non_cycles():
    X = circle()
    h0 = present_homology(boundary_matrix(X, 0), boundary_matrix(X, 1))
    assert h0.group == AbelianGroup(1)
    X2 = torus()
    h1 = present_homology(boundary_matrix(X2, 1), boundary_matrix(X2, 2))
    basis = chain_basis(X2, 1)
    not_a_cycle = tuple(1 if i == 0 else 0 for i in range(len(basis)))
    with pytest.raises(MatrixError):
        h1.reduce(not_a_cycle)


def test_normalized_and_unnormalized_homology_agree():
    for X in (circle(), standard_simplex(2), rp2()):
        for n in (0, 1, 2):
            a = present_homology(boundary_matrix(X, n),
                                 boundary_matrix(X, n + 1)).group
            b = present_homology(unnormalized_boundary_matrix(X, n),
                                 unnormalized_boundary_matrix(X, n + 1)).group
            assert a == b, (X.name, n)


def _fields(p):
    return (p.group, p.orders, p.generators, p.basis_size,
            p._v_inv, p._rank, p._u_y, p._kept)


@pytest.mark.parametrize("dual", [False, True], ids=["chains", "cochains"])
def test_shared_reductions_give_the_unshared_presentations(monkeypatch, dual):
    """Presented together, a degree with zero in-boundary and its neighbour
    reduce the neighbour's in-boundary once; every presentation is the one
    its degree gets when presented alone."""
    reduced = []
    real = chainalg.smith_normal_form

    def counting(m, *args):
        reduced.append(m)
        return real(m, *args)

    monkeypatch.setattr(chainalg, "smith_normal_form", counting)
    together_calls = alone_calls = 0
    for X in (point(), circle(), torus(), rp2(), sphere(3), standard_simplex(2)):
        stage = StageComplex(X, frozenset())
        degrees = range(X.top_dim + 2)
        reduced.clear()
        together = chainalg._present_degrees(stage, degrees, dual)
        together_calls += len(reduced)
        reduced.clear()
        alone = {n: chainalg._present_degrees(stage, [n], dual)[n] for n in degrees}
        alone_calls += len(reduced)
        assert list(together) == list(degrees)
        for n in degrees:
            assert _fields(together[n]) == _fields(alone[n]), (X.name, n)
    assert together_calls < alone_calls


# -------------------------------------------------------- finite homology

def test_homology_of_finite_spaces():
    assert [homology(point()).group(n) for n in (0, 1)] \
        == [AbelianGroup(1), TRIVIAL_GROUP]
    assert homology(circle()).group(1) == AbelianGroup(1)
    t = homology(torus())
    assert (t.group(0), t.group(1), t.group(2)) \
        == (AbelianGroup(1), AbelianGroup(2), AbelianGroup(1))
    r = homology(rp2())
    assert (r.group(0), r.group(1), r.group(2)) \
        == (AbelianGroup(1), AbelianGroup(0, (2,)), TRIVIAL_GROUP)
    s3 = homology(sphere(3))
    assert s3.group(3) == AbelianGroup(1) and s3.group(2) == TRIVIAL_GROUP


def test_homology_with_coefficients():
    two = parse_coefficients("z/2")
    r = homology(rp2(), two)
    assert [r.group(n) for n in (0, 1, 2)] == [AbelianGroup(1)] * 3
    q = homology(rp2(), RATIONAL)
    assert [q.group(n) for n in (0, 1, 2)] \
        == [AbelianGroup(1), TRIVIAL_GROUP, TRIVIAL_GROUP]
    four = parse_coefficients("z/4")
    r4 = homology(rp2(), four)
    assert r4.group(1) == AbelianGroup(0, (2,))
    assert r4.group(2) == AbelianGroup(0, (2,))


def test_cohomology_shifts_torsion_up():
    r = cohomology(rp2())
    assert (r.group(0), r.group(1), r.group(2)) \
        == (AbelianGroup(1), TRIVIAL_GROUP, AbelianGroup(0, (2,)))


def test_finite_spaces_collapse_the_four_theories():
    X = torus()
    bm = bm_homology(X)
    assert bm.groups == homology(X).groups
    cc = cohomology_c(X)
    assert cc.groups == cohomology(X).groups
    for result in (bm, cc):
        assert result.caveats  # says why it agrees
        assert result.stabilized_at is None


def test_euler_characteristic():
    assert euler_characteristic(homology(torus())) == 0
    assert euler_characteristic(homology(sphere(2))) == 2
    assert euler_characteristic(homology(rp2(), RATIONAL)) == 1


# ------------------------------------------------- limits over exhaustions

def test_theories_of_the_ray():
    assert homology(ray()).group(0) == AbelianGroup(1)
    bm = bm_homology(ray())
    assert bm.group(0) == TRIVIAL_GROUP and bm.group(1) == TRIVIAL_GROUP
    assert cohomology_c(ray()).group(0) == TRIVIAL_GROUP


def test_theories_of_the_line():
    """The two theories see different things: H is a point's, H_BM a circle's
    shifted."""
    assert homology(line()).group(0) == AbelianGroup(1)
    bm = bm_homology(line())
    assert bm.group(0) == TRIVIAL_GROUP
    assert bm.group(1) == AbelianGroup(1)
    assert bm.stabilized_at == {0: 0, 1: 1}
    cc = cohomology_c(line())
    assert cc.group(0) == TRIVIAL_GROUP
    assert cc.group(1) == AbelianGroup(1)
    assert cohomology(line()).group(0) == AbelianGroup(1)


@pytest.mark.parametrize("driver,is_limit", [
    (homology, False), (bm_homology, True), (cohomology, True),
    (cohomology_c, False),
])
def test_only_limits_carry_the_mittag_leffler_caveat(driver, is_limit):
    caveats = driver(line()).caveats
    assert any("Mittag-Leffler" in c for c in caveats) == is_limit


def test_theories_of_plane_and_cylinder():
    bm = bm_homology(plane())
    assert [bm.group(n) for n in (0, 1, 2)] \
        == [TRIVIAL_GROUP, TRIVIAL_GROUP, AbelianGroup(1)]
    assert homology(plane()).group(0) == AbelianGroup(1)
    cyl_bm = bm_homology(cylinder())
    assert [cyl_bm.group(n) for n in (0, 1, 2)] \
        == [TRIVIAL_GROUP, AbelianGroup(1), AbelianGroup(1)]
    cyl = homology(cylinder())
    assert [cyl.group(n) for n in (0, 1, 2)] \
        == [AbelianGroup(1), AbelianGroup(1), TRIVIAL_GROUP]
    assert [cohomology_c(cylinder()).group(n) for n in (0, 1, 2)] \
        == [TRIVIAL_GROUP, AbelianGroup(1), AbelianGroup(1)]


def test_stabilization_failure_is_loud():
    with pytest.raises(NonStabilizationError) as info:
        bm_homology(balloon_ray())
    err = info.value
    assert err.theory == "H_BM"
    assert err.degree == 1
    degree, groups = err.history[0]
    assert degree == 1
    assert groups[-1] == "Z^12"


def test_window_and_depth_are_respected():
    with pytest.raises(NonStabilizationError):
        bm_homology(line(), max_depth=2)  # window 3 cannot close by depth 2
    assert bm_homology(line(), window=2, max_depth=4).group(1) == AbelianGroup(1)


def test_transition_check_rejects_a_non_chain_map(monkeypatch):
    # stage 2 of the line gets its edge boundaries rotated: still ∂∂ = 0,
    # but the transitions into and out of stage 2 are no chain maps
    original = chainalg._stage_for

    def skewed(space, depth, relative):
        stage = original(space, depth, relative)
        if depth == 2:
            d1 = stage.boundary(1)
            stage._matrices[1] = IntMatrix(
                d1.rows, d1.cols, tuple(row[1:] + row[:1] for row in d1.data))
        return stage

    monkeypatch.setattr(chainalg, "_stage_for", skewed)
    for driver in THEORY_DRIVERS.values():
        with pytest.raises(MatrixError, match="transition does not commute with the boundary"):
            driver(line())


def test_inclusion_needs_every_cell_in_the_larger_stage(monkeypatch):
    # stage 2 drops a vertex that stage 1 has: there is no inclusion
    original = chainalg._stage_for

    def shrunk(space, depth, relative):
        stage = original(space, depth, relative)
        if depth == 2:
            vertex = original(space, 1, relative).basis(0)[0]
            stage = StageComplex(stage.complex, stage.excluded | {vertex})
        return stage

    monkeypatch.setattr(chainalg, "_stage_for", shrunk)
    for driver in (homology, cohomology):
        with pytest.raises(MatrixError, match="missing from the larger basis"):
            driver(line())


# --------------------------------------------------- chains and the pairing

def test_boundary_of_a_chain_matches_the_matrix():
    X = torus()
    basis2 = chain_basis(X, 2)
    basis1 = chain_basis(X, 1)
    c = Chain(X, 2, {basis2[0]: 1, basis2[3]: -2})
    assert boundary(c).vector(basis1) \
        == boundary_matrix(X, 2).apply(c.vector(basis2))


@pytest.mark.parametrize("kind", [Chain, Cochain])
def test_chains_and_cochains_check_their_cells(kind):
    X = standard_simplex(2)
    edge, face = Cell(1, "0.1"), Cell(2, "0.1.2")
    with pytest.raises(SimplicialError, match="is not a 1-cell"):
        kind(X, 1, {face: 1})
    with pytest.raises(SimplicialError, match="is not in the complex"):
        kind(X, 1, {Cell(1, "0.3"): 1})
    c = kind(X, 1, {edge: 2, Cell(1, "1.2"): 0})
    assert c.vector(X.cells(1)) == (2, 0, 0)
    assert len(c.coeffs if kind is Chain else c.values) == 1


def test_cochain_vanishes_on_degenerates():
    X = circle()
    e = next(iter(X.cells(1)))
    phi = Cochain(X, 1, {e: 5})
    degenerate = Simplex((0,), Cell(0, "v"))
    assert phi(degenerate) == 0


@settings(max_examples=60)
@given(st.data())
def test_pairing_adjointness(data):
    """<d phi, c> == <phi, d c> for random (co)chains in every degree."""
    X = data.draw(st.sampled_from(CORPUS[1:]))
    n = data.draw(st.integers(0, 2))
    chains = list(X.cells(n + 1))
    cocells = list(X.cells(n))
    if not chains or not cocells:
        return
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=len(chains),
                                max_size=len(chains)))
    values = data.draw(st.lists(st.integers(-4, 4), min_size=len(cocells),
                                max_size=len(cocells)))
    c = Chain(X, n + 1, dict(zip(chains, coeffs)))
    phi = Cochain(X, n, dict(zip(cocells, values)))
    assert pairing(coboundary(phi), c) == pairing(phi, boundary(c))


def test_pushforward_pullback_adjointness():
    d2 = standard_simplex(2)
    pt = point()
    collapse = SimplicialMap(d2, pt, {
        c: Simplex(tuple(range(n - 1, -1, -1)), Cell(0, "pt"))
        for n in d2.dims() for c in d2.cells(n)})
    c = Chain(d2, 0, {Cell(0, "0"): 2, Cell(0, "2"): 1})
    phi = Cochain(pt, 0, {Cell(0, "pt"): 3})
    assert pairing(phi, pushforward(collapse, c)) == pairing(pullback(collapse, phi), c)


def test_pushforward_drops_degenerate_images():
    d1 = standard_simplex(1)
    pt = point()
    collapse = SimplicialMap(d1, pt, {
        c: Simplex(tuple(range(n - 1, -1, -1)), Cell(0, "pt"))
        for n in d1.dims() for c in d1.cells(n)})
    c = Chain(d1, 1, {Cell(1, "0.1"): 1})
    assert pushforward(collapse, c).coeffs == {}


def test_fold_adds_the_two_strands():
    fold = fold_line_to_ray()
    level = fold.level_map(2)
    c = Chain(level.source, 1,
              {Cell(1, "a0c1.seg"): 1, Cell(1, "a1c1.seg"): 1})
    pushed = pushforward(level, c)
    assert pushed.coeffs == {Cell(1, "a0c1.seg"): 2}


def test_periodic_pullback_requires_properness():
    proj = cylinder_projection()
    ring = proj.target
    e = Cell(1, "er0")
    with pytest.raises(ControlError):
        pullback_periodic(proj, Cochain(ring, 1, {e: 1}), depth=1)


def test_periodic_pullback_along_the_fold():
    fold = fold_line_to_ray()
    ray_k2 = fold.target.truncate(2).complex
    phi = Cochain(ray_k2, 1, {Cell(1, "a0c1.seg"): 1})
    pulled = pullback_periodic(fold, phi, depth=2)
    assert {c.id: v for c, v in pulled.values.items()} \
        == {"a0c1.seg": 1, "a1c1.seg": 1}


# ------------------------------------------------------- the limit pairing

def test_line_pairing_is_unimodular():
    result = pairing_matrix(line(), 1)
    assert result.bm_group == AbelianGroup(1)
    assert result.cc_group == AbelianGroup(1)
    assert result.matrix in (((1,),), ((-1,),))


def test_torus_pairing_in_top_degree():
    result = pairing_matrix(torus(), 2)
    assert result.depth is None
    assert result.matrix in (((1,),), ((-1,),))


@pytest.mark.parametrize("space", [torus, line], ids=["torus", "line"])
def test_pairing_refuses_a_negative_degree(space):
    with pytest.raises(ValueError, match="degree must be at least 0"):
        pairing_matrix(space(), -1)


def test_torsion_pairs_to_nothing():
    result = pairing_matrix(rp2(), 1)
    assert result.bm_group == AbelianGroup(0, (2,))
    assert result.cc_group == TRIVIAL_GROUP
    assert result.matrix == ()


# ----------------------------------------------------------- induced maps

def test_collapse_induces_iso_on_h0():
    d2 = standard_simplex(2)
    pt = point()
    collapse = SimplicialMap(d2, pt, {
        c: Simplex(tuple(range(n - 1, -1, -1)), Cell(0, "pt"))
        for n in d2.dims() for c in d2.cells(n)})
    source, target, images = induced_on_homology(collapse, 0)
    assert source.group == target.group == AbelianGroup(1)
    assert images in ([(1,)], [(-1,)])


def test_double_cover_of_the_circle_induces_two():
    """Both edges of a two-edge circle land on the one loop, so the chain
    map must add them: H_1 goes to 2 times the generator."""
    a, b = Simplex((), Cell(0, "a")), Simplex((), Cell(0, "b"))
    two_edges = FiniteSimplicialSet(
        {0: ["a", "b"], 1: ["x", "y"]},
        {(1, "x"): (b, a), (1, "y"): (a, b)},
        name="circle2",
    )
    loop = circle()
    v, e = Simplex((), Cell(0, "v")), Simplex((), Cell(1, "e"))
    cover = SimplicialMap(two_edges, loop, {
        Cell(0, "a"): v, Cell(0, "b"): v, Cell(1, "x"): e, Cell(1, "y"): e})
    source, target, images = induced_on_homology(cover, 1)
    assert source.group == target.group == AbelianGroup(1)
    assert images in ([(2,)], [(-2,)])
