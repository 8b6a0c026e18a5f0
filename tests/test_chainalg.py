import gc
import re
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ctlhom import chainalg, cli, corpus, snf, sset
from ctlhom.chainalg import (
    INTEGER,
    RATIONAL,
    THEORY_DRIVERS,
    AbelianGroup,
    CoefficientError,
    Coefficients,
    NonStabilizationError,
    StageComplex,
    TRIVIAL_GROUP,
    bm_homology,
    boundary_matrix,
    cohomology,
    cohomology_c,
    convert_group,
    euler_characteristic,
    homology,
    invariant_chain,
    pairing_matrix,
    parse_coefficients,
    present_homology,
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
from ctlhom.maps import (
    Chain,
    Cochain,
    SimplicialMap,
    boundary,
    coboundary,
    identity_simplicial_map,
    induced_on_homology,
    pairing,
    pullback,
    pullback_periodic,
    pushforward,
)
from ctlhom.sset import (
    Cell,
    FiniteSimplicialSet,
    Simplex,
    SimplicialError,
    facet_complex,
    standard_simplex,
)
from ctlhom.snf import IntMatrix, MatrixError
from exhaustions import (
    bead_string,
    dots_into_tail,
    facet_lists,
    gluings,
    long_tail,
    ray_beside_a_star,
    ray_onto_beads,
    relay,
    star_identity,
)


# ------------------------------------------------------------- coefficients

def test_parse_coefficients():
    assert parse_coefficients("z") == INTEGER
    assert parse_coefficients("q") == RATIONAL
    assert parse_coefficients("z/6").modulus == 6
    for bad in ("z/x", "z/1", "z/0", "r", ""):
        with pytest.raises(CoefficientError):
            parse_coefficients(bad)


@pytest.mark.parametrize("modulus", [2.5, 4.0, "3", True, None])
def test_a_cyclic_ring_needs_an_integer_modulus(modulus):
    message = ("cyclic coefficients need a modulus >= 2" if modulus is None
               else f"a modulus must be an integer, not {modulus!r}")
    with pytest.raises(CoefficientError, match=f"^{re.escape(message)}$"):
        Coefficients("zmod", modulus)


@pytest.mark.parametrize("make, error, message", [
    (lambda: Coefficients("reals"), CoefficientError, "unknown coefficient kind 'reals'"),
    (lambda: Coefficients("z", 3), CoefficientError, "only z/M takes a modulus"),
    (lambda: AbelianGroup(-1), ValueError, "negative free rank"),
    (lambda: homology(circle()).presentations[1].reduce((1, 2, 3)), MatrixError,
     "cycle has length 3, basis has 1"),
], ids=["coefficient kind", "modulus on z", "negative rank", "cycle length"])
def test_refusals_name_their_fault(make, error, message):
    with pytest.raises(ValueError) as err:
        make()
    assert type(err.value) is error and str(err.value) == message


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
    basis = X2.cells(1)
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
def test_shared_reductions_give_the_unshared_presentations(dual):
    """Presented together, neighbouring degrees read the same boundary
    matrices; every presentation, with its basis read, is the one its degree
    gets when presented alone."""
    for X in (point(), circle(), torus(), rp2(), sphere(3), standard_simplex(2)):
        degrees = range(X.top_dim + 2)
        together = StageComplex(X, frozenset()).present(degrees, dual)
        together = {n: _fields(p) for n, p in together.items()}
        # each alone on a fresh stage, which has presented nothing yet
        alone = {n: _fields(StageComplex(X, frozenset()).present([n], dual)[n])
                 for n in degrees}
        assert list(together) == list(degrees)
        for n in degrees:
            assert together[n] == alone[n], (X.name, n)


def _spy_reductions(monkeypatch) -> tuple:
    """The transforms each Smith reduction tracks, in call order, whether it
    is called from ``chainalg`` or from ``snf.invariant_factors``, and the
    shape of each matrix whose invariant factors are asked for."""
    tracked, factored = [], []
    real, real_factors = snf.smith_normal_form, snf.invariant_factors

    def spy(m, track=snf.TRANSFORMS):
        tracked.append(tuple(track))
        return real(m, track)

    def factors_spy(m, *dropped_and_pivots):
        factored.append((m.rows, m.cols))
        return real_factors(m, *dropped_and_pivots)

    for module in (snf, chainalg):
        monkeypatch.setattr(module, "smith_normal_form", spy)
        monkeypatch.setattr(module, "invariant_factors", factors_spy)
    return tracked, factored


def _relative_stage(space, depth: int) -> StageComplex:
    trunc = space.truncate(depth)
    return StageComplex(trunc.complex, frozenset(trunc.frontier))


@pytest.mark.parametrize("stage", [
    lambda: StageComplex(rp2(), frozenset()), lambda: _relative_stage(cylinder(), 2),
], ids=["rp2", "cylinder[2] relative"])
def test_a_stage_presents_each_degree_and_variance_once(monkeypatch, stage):
    """Presented again, a stage's degrees are the same objects, made with no
    Smith reduction; its chains and cochains keep apart entries."""
    stage = stage()
    degrees = range(stage.complex.top_dim + 2)
    first = {dual: stage.present(degrees, dual) for dual in (False, True)}
    tracked, factored = _spy_reductions(monkeypatch)
    for dual in (False, True):
        again = stage.present(degrees, dual)
        assert all(again[n] is first[dual][n] for n in degrees)
    assert tracked == [] and factored == []
    assert all(first[False][n] is not first[True][n] for n in degrees)
    assert set(stage._presented) == {(n, dual) for n in degrees for dual in (False, True)}


def test_finite_groups_track_no_transform(monkeypatch):
    """The theories read groups only: they take invariant factors, their
    reductions build no transform until a basis is read, and reading one
    afterwards gives the presentation that presenting the degrees directly
    gives."""
    tracked, factored = _spy_reductions(monkeypatch)
    for driver, dual in ((homology, False), (cohomology, True)):
        tracked.clear()
        factored.clear()
        result = driver(sphere(6))
        assert factored, driver.__name__
        assert all(t == () for t in tracked), driver.__name__
        assert all("generators" not in vars(p) for p in result.presentations.values())
        read = {n: _fields(p) for n, p in result.presentations.items()}
        assert any(t != () for t in tracked)
        direct = StageComplex(sphere(6), frozenset()).present(list(read), dual)
        assert read == {n: _fields(p) for n, p in direct.items()}


def test_finite_cli_commands_track_no_transform(monkeypatch, capsys):
    tracked, factored = _spy_reductions(monkeypatch)
    for space in ("point", "circle", "torus", "rp2", "delta(3)", "sphere(2)", "sphere(3)"):
        for command in ("homology", "bm-homology", "cohomology", "cohomology-c"):
            for coeff in ("z", "z/2", "q"):
                factored.clear()
                assert cli.main([command, space, "--coeff", coeff, "--json"]) == 0
                assert factored, (command, space, coeff)
    capsys.readouterr()
    assert all(t == () for t in tracked)


def test_a_non_composing_pair_is_refused_before_any_basis_is_read(monkeypatch):
    tracked, _ = _spy_reductions(monkeypatch)
    d1 = boundary_matrix(torus(), 1)
    wrong = IntMatrix.identity(d1.cols)
    with pytest.raises(MatrixError, match="boundaries do not compose to zero"):
        present_homology(d1, wrong)
    with pytest.raises(MatrixError, match="boundaries do not compose to zero"):
        present_homology(wrong.transpose(), d1.transpose(), factors=((), ()))
    assert tracked == []
    with pytest.raises(MatrixError, match="boundary shapes disagree"):
        present_homology(d1, IntMatrix.identity(d1.rows))


# ------------------------------------------------- dropped pivot columns

def _factor_spaces() -> dict:
    """Builders by name: every corpus complex and exhaustion, and every
    exhaustion of ``tests/exhaustions.py``, the maps' sources and targets
    included."""
    out = {name: build for name, (build, _) in {**corpus.SPACES, **corpus.FIXTURES}.items()}
    out.update({f"sphere({n})": lambda n=n: sphere(n) for n in range(6)})
    out.update({f"delta({n})": lambda n=n: standard_simplex(n) for n in range(6)})
    out.update({f.__name__: f for f in (relay, long_tail, bead_string)})
    for f in (ray_onto_beads, dots_into_tail, star_identity, ray_beside_a_star):
        out[f"{f.__name__} source"] = lambda f=f: f().source
        out[f"{f.__name__} target"] = lambda f=f: f().target
    return out


def _stages_of(space) -> list:
    """(complex, excluded) for a finite complex, or for the absolute and
    relative stages at depth 3 or less of an exhaustion."""
    if isinstance(space, FiniteSimplicialSet):
        return [(space, frozenset())]
    return [(t.complex, excluded) for t in map(space.truncate, range(4))
            for excluded in (frozenset(), frozenset(t.frontier))]


def _full_group(stage: StageComplex, n: int, dual: bool) -> AbelianGroup:
    """Degree n presented from the invariant factors of both whole matrices."""
    if dual:
        return present_homology(stage.boundary(n + 1, True), stage.boundary(n, True)).group
    return present_homology(stage.boundary(n), stage.boundary(n + 1)).group


def _check_factors(stage: StageComplex, top: int):
    """Every factor the stage keeps, or gives, is that of the whole matrix."""
    for n in range(top + 1):
        for dual in (False, True):
            assert stage.factors(n, dual) == snf.invariant_factors(stage.boundary(n, dual)), (n, dual)


FACTOR_SPACES = _factor_spaces()


@pytest.mark.parametrize("name", sorted(FACTOR_SPACES))
def test_dropped_pivot_columns_change_no_factor(name):
    """Presenting degrees ascending, descending or one at a time gives the
    groups of the whole matrices, and every factor is the whole matrix's;
    so does presenting one degree in the other variance first."""
    for X, excluded in _stages_of(FACTOR_SPACES[name]()):
        degrees = list(range(X.top_dim + 2))
        for dual in (False, True):
            for other, order in [((), degrees), ((), degrees[::-1]), ((), None)] + [
                    ([m], degrees) for m in degrees]:
                stage = StageComplex(X, excluded)
                stage.present(other, not dual)
                groups = ({n: stage.present(order, dual)[n].group for n in degrees} if order
                          else {n: stage.present([n], dual)[n].group for n in degrees})
                assert groups == {n: _full_group(stage, n, dual) for n in degrees}, (X, dual, order)
                _check_factors(stage, X.top_dim + 2)


@st.composite
def factor_stages(draw):
    """A stage of a ``gluings`` draw at depth 3 or less, absolute or
    relative, or a random facet complex."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_stages_of(draw(gluings()))))
    return facet_complex(draw(facet_lists(st.integers(0, 6)))), frozenset()


@settings(max_examples=150, deadline=None)
@given(factor_stages(), st.data())
def test_mixed_requests_on_one_stage_change_no_factor(stage_spec, data):
    """Chains and cochains asked for in any degrees, in any order, on one
    stage: a variance reads no pivots that the other one recorded."""
    X, excluded = stage_spec
    stage, top = StageComplex(X, excluded), max(X.top_dim, 0) + 1
    requests = data.draw(st.lists(st.tuples(
        st.lists(st.integers(0, top), min_size=1, max_size=3, unique=True), st.booleans()),
        min_size=1, max_size=6))
    for degrees, dual in requests:
        got = stage.present(degrees, dual)
        assert {n: got[n].group for n in degrees} == {n: _full_group(stage, n, dual) for n in degrees}
    _check_factors(stage, top + 1)


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


def test_each_column_is_assembled_once_per_exhaustion(monkeypatch):
    assembled = Counter()
    real = sset._column

    def spy(X, cell):
        assembled[getattr(X, "_grown", X), cell] += 1
        return real(X, cell)

    monkeypatch.setattr(sset, "_column", spy)
    space = relay()
    with pytest.raises(NonStabilizationError):
        homology(space, max_depth=60)
    deepest = space.truncate(len(space._stages) - 1).complex
    assert len(space._stages) == 61 and set(assembled.values()) == {1}
    assert all((space._complex, c) in assembled for n in (1, 2) for c in deepest.cells(n))


@pytest.mark.parametrize("space,degree,calls", [(cylinder, 1, 11), (plane, 2, 15)])
def test_the_pairing_presents_each_stage_once(monkeypatch, space, degree, calls):
    """The two stage systems share the slab certificate, and the final stage
    reuses their presentations."""
    made = []
    real = chainalg.present_homology
    monkeypatch.setattr(chainalg, "present_homology",
                        lambda *args, **kwargs: made.append(1) or real(*args, **kwargs))
    pairing_matrix(space(), degree)
    assert len(made) == calls


def test_the_engine_reads_local_finiteness_and_stages_through_module_bindings(monkeypatch):
    """A tracer that rebinds ``chainalg.is_locally_finite`` and
    ``Exhaustion.truncate`` sees the engine's calls; the report is made once
    per space object."""
    calls = Counter()
    lf, truncate = chainalg.is_locally_finite, sset.Exhaustion.truncate
    monkeypatch.setattr(chainalg, "is_locally_finite",
                        lambda X: calls.update(["lf"]) or lf(X))
    monkeypatch.setattr(sset.Exhaustion, "truncate",
                        lambda X, depth: calls.update(["truncate"]) or truncate(X, depth))
    pairing_matrix(cylinder(), 1)
    assert calls["lf"] == 1 and calls["truncate"] > 0


def _spy_on_depths(monkeypatch) -> dict:
    """Record the depths ``Exhaustion.truncate`` is asked for, and the
    stages a run's stage system reads (to present them or test a
    transition out of them)."""
    seen = {"truncated": [], "read": []}
    truncate, stage = sset.Exhaustion.truncate, chainalg._StageSystem.stage
    monkeypatch.setattr(sset.Exhaustion, "truncate",
                        lambda X, depth: seen["truncated"].append(depth) or truncate(X, depth))
    monkeypatch.setattr(chainalg._StageSystem, "stage",
                        lambda system, i: seen["read"].append(i) or stage(system, i))
    return seen


READ_DEPTHS = {
    "H cylinder": 0, "H plane": 0, "H relay": 12,
    "H_BM cylinder": 1, "H_BM plane": 1, "H_BM relay": 1,
    "H_co cylinder": 0, "H_co plane": 0, "H_co relay": 12,
    "H_c cylinder": 1, "H_c plane": 1, "H_c relay": 1,
    "pairing cylinder": 1, "pairing plane": 1,
}


@pytest.mark.parametrize("run", sorted(READ_DEPTHS))
def test_a_run_truncates_only_the_stages_it_reads(monkeypatch, run):
    """The local-finiteness gate builds no stage for its star counts, so
    the deepest stage truncated is the deepest stage the run reads (the
    relay's H and H_co read to ``max_depth`` before they refuse)."""
    tag, name = run.split()
    build = {"cylinder": cylinder, "plane": plane, "relay": relay}[name]
    driver = ((lambda X: pairing_matrix(X, 1 if name == "cylinder" else 2)) if tag == "pairing"
              else THEORY_DRIVERS[tag])
    space = build()
    seen = _spy_on_depths(monkeypatch)
    try:
        driver(space)
    except NonStabilizationError:
        assert run in ("H relay", "H_co relay")
    assert max(seen["truncated"]) == max(seen["read"]) == READ_DEPTHS[run]


def test_the_star_counts_truncate_only_when_read(monkeypatch):
    """The cylinder's copies crowd no star, so deciding truncates nothing;
    the star sizes are then counted at stage 4 + ``longest``, once."""
    space = cylinder()
    seen = _spy_on_depths(monkeypatch)
    report = sset.is_locally_finite(space)
    assert report.ok and seen["truncated"] == []
    assert report.star_sizes["r0"] == report.max_star == 13
    longest = space.longest
    assert max(seen["truncated"]) == 4 + longest == 5
    count = len(seen["truncated"])
    assert report.max_star == 13 and len(seen["truncated"]) == count


RUNS = {**{f"{tag} {build.__name__}": (build, driver)
           for tag, driver in THEORY_DRIVERS.items()
           for build in (cylinder, plane, balloon_ray, relay)},
        "pairing cylinder": (cylinder, lambda X: pairing_matrix(X, 1)),
        "pairing plane": (plane, lambda X: pairing_matrix(X, 2))}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_a_theory_run_leaves_no_reference_cycle_through_its_space(run):
    """What a run keeps on the space refers to none of its objects, so the
    space is freed by reference counting alone when it is dropped."""
    build, driver = RUNS[run]
    gc.disable()
    try:
        space = build()
        try:
            driver(space)
        except NonStabilizationError:
            pass
        freed = weakref.ref(space)
        del space
        assert freed() is None
    finally:
        gc.enable()


# --------------------------------------------------- chains and the pairing

def test_boundary_of_a_chain_matches_the_matrix():
    X = torus()
    basis2 = X.cells(2)
    basis1 = X.cells(1)
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


def test_chains_are_equal_on_one_complex_with_equal_coefficients():
    """Equality compares the complex by identity, then degree and
    coefficients, and never holds between a chain and a cochain."""
    X = torus()
    e = X.cells(1)[0]
    assert Chain(X, 1, {e: 2}) == Chain(X, 1, {e: 2, X.cells(1)[1]: 0})
    assert Chain(X, 1, {e: 2}) != Chain(X, 1, {e: 3})
    assert Chain(X, 1, {e: 2}) != Chain(torus(), 1, {e: 2})
    assert Chain(X, 1, {e: 2}) != Cochain(X, 1, {e: 2})
    assert Cochain(X, 1, {e: 2}) != Chain(X, 1, {e: 2})


def test_cochain_vanishes_on_degenerates():
    X = circle()
    e = next(iter(X.cells(1)))
    phi = Cochain(X, 1, {e: 5})
    degenerate = Simplex((0,), Cell(0, "v"))
    assert phi(degenerate) == 0


@settings(max_examples=60)
@given(st.data())
def test_pairing_adjointness(data):
    """<d phi, c> == <phi, d c> for random (co)chains in every degree, on
    finite complexes and on stages 0-3 of three exhaustions, whose columns
    ``boundary`` reads through the tables the stages share."""
    X = data.draw(st.sampled_from(CORPUS[1:] + [space.truncate(d).complex
                                                for space in (plane(), cylinder(), relay())
                                                for d in range(4)]))
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


def test_periodic_pullback_keeps_support_past_a_gap():
    """The support skips copy 2, and a depth past it computes as well: the
    pullback is taken once, one stage (the ray's longest walk) past the
    deepest stage of the support."""
    fold = fold_line_to_ray()
    phi = Cochain(fold.target.truncate(3).complex, 1,
                  {Cell(1, "a0c1.seg"): 1, Cell(1, "a0c3.seg"): 1})
    for depth, stage in ((1, 4), (20, 20)):
        pulled = pullback_periodic(fold, phi, depth=depth)
        assert pulled.complex is fold.source.truncate(stage).complex
        assert {c.id: v for c, v in pulled.values.items()} \
            == {"a0c1.seg": 1, "a1c1.seg": 1, "a0c3.seg": 1, "a1c3.seg": 1}


def test_periodic_pullback_reads_the_support_stage_from_copy_names():
    """Where a support cell is glued is read from its name, so a cochain on
    an equal target, truncated further than the map's own, pulls back as on
    the map's target, whatever that has glued so far."""
    fold = fold_line_to_ray()
    phi = Cochain(ray().truncate(3).complex, 1, {Cell(1, "a0c3.seg"): 1})
    pulled = pullback_periodic(fold, phi, depth=1)
    assert pulled.complex is fold.source.truncate(4).complex
    assert {c.id: v for c, v in pulled.values.items()} == {"a0c3.seg": 1, "a1c3.seg": 1}


def test_periodic_pullback_reaches_copies_that_land_a_copy_back():
    """Copy 3 of the dots lands on the vertex r that copy 2 of the tail glued
    on, so the cell over stage 2's support is found at a later stage."""
    f = dots_into_tail()
    phi = Cochain(f.target.truncate(2).complex, 0, {Cell(0, "a0c2.r"): 1})
    pulled = pullback_periodic(f, phi, depth=1)
    assert {c.id: v for c, v in pulled.values.items()} == {"a0c3.pout": 1}
    with pytest.raises(SimplicialError, match="does not live on the map's target"):
        pullback_periodic(f, Cochain(standard_simplex(1), 0, {Cell(0, "0"): 1}), depth=1)


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


# manifold fixtures: dimension, builder and coefficients (rp2 is not
# orientable, so its duality holds over Z/2 and its pairing is not checked)
_MANIFOLDS = {"line": (1, line, INTEGER), "plane": (2, plane, INTEGER),
              "cylinder": (2, cylinder, INTEGER), "torus": (2, torus, INTEGER),
              "sphere(2)": (2, lambda: sphere(2), INTEGER),
              "rp2": (2, rp2, parse_coefficients("z/2"))}


@pytest.mark.parametrize("name", sorted(_MANIFOLDS))
def test_poincare_duality_on_the_manifold_fixtures(name):
    """H_BM_n = H^{d-n} and H_c^n = H_{d-n} in every degree, and over the
    integers the pairing of H_c^n with H_BM_n is unimodular."""
    d, build, coeff = _MANIFOLDS[name]
    groups = {tag: driver(build(), coeff).groups for tag, driver in THEORY_DRIVERS.items()}
    assert sorted(groups["H"]) == list(range(d + 1))
    for n in range(d + 1):
        assert groups["H_BM"][n] == groups["H_co"][d - n], n
        assert groups["H_c"][n] == groups["H"][d - n], n
    for n in range(d + 1) if coeff is INTEGER else ():
        result = pairing_matrix(build(), n)
        k = result.bm_group.free_rank
        assert result.bm_group == result.cc_group == AbelianGroup(k), n
        assert snf.invariant_factors(IntMatrix(k, k, result.matrix)) == (1,) * k, n


@pytest.mark.parametrize("space", [torus, line], ids=["torus", "line"])
def test_pairing_refuses_a_negative_degree(space):
    with pytest.raises(ValueError, match="degree must be at least 0"):
        pairing_matrix(space(), -1)


@pytest.mark.parametrize("name, value", [("window", 0), ("window", -2), ("max_depth", 0),
                                         ("max_depth", -3), ("max_degree", -1),
                                         ("window", 2.5), ("window", True), ("max_depth", 3.5),
                                         ("max_degree", 1.5), ("max_degree", True)])
@pytest.mark.parametrize("space", [torus, ray], ids=["finite", "exhaustion"])
@pytest.mark.parametrize("driver", [*THEORY_DRIVERS.values(), pairing_matrix],
                         ids=[*THEORY_DRIVERS, "pairing"])
def test_drivers_refuse_bad_arguments_by_name_on_every_space(monkeypatch, driver, space, name,
                                                             value):
    """A window, depth or degree that is not an integer (bools included), a
    window or depth below 1, and a degree below 0 (the pairing's own degree
    in place of a top degree), are refused before any stage is read."""
    monkeypatch.setattr(chainalg, "is_locally_finite", None)
    kwargs = {"degree": 1} if driver is pairing_matrix else {}
    if driver is pairing_matrix and name == "max_degree":
        name = "degree"
    kwargs[name] = value
    low = 0 if "degree" in name else 1
    message = (f"{name} must be at least {low}" if type(value) is int
               else f"{name} must be an integer, not {value!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        driver(space(), **kwargs)


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


def test_an_edge_onto_a_degenerate_simplex_drops_out_of_the_induced_map():
    """One edge of a two-edge circle goes round the loop and the other onto
    the degenerate edge s_0(v), which vanishes on normalized chains: H_1
    goes to the generator."""
    a, b = Simplex((), Cell(0, "a")), Simplex((), Cell(0, "b"))
    two_edges = FiniteSimplicialSet(
        {0: ["a", "b"], 1: ["x", "y"]},
        {(1, "x"): (b, a), (1, "y"): (a, b)},
        name="circle2",
    )
    v, e = Simplex((), Cell(0, "v")), Simplex((), Cell(1, "e"))
    pinch = SimplicialMap(two_edges, circle(), {
        Cell(0, "a"): v, Cell(0, "b"): v, Cell(1, "x"): e, Cell(1, "y"): Simplex((0,), v.core)})
    source, target, images = induced_on_homology(pinch, 1)
    assert source.group == target.group == AbelianGroup(1)
    assert images in ([(1,)], [(-1,)])


@pytest.mark.parametrize("degree, message", [
    (1.5, "degree must be an integer, not 1.5"),
    (-1, "degree must be at least 0"),
    (True, "degree must be an integer, not True"),
], ids=["float", "negative", "bool"])
def test_an_induced_map_refuses_a_bad_degree_before_presenting(monkeypatch, degree, message):
    """The drivers' refusal, made before either complex is presented."""
    def present(*_):
        raise AssertionError("a stage was presented")

    monkeypatch.setattr(StageComplex, "present", present)
    with pytest.raises(ValueError) as err:
        induced_on_homology(identity_simplicial_map(circle()), degree)
    assert type(err.value) is ValueError and str(err.value) == message
