"""Acceptance checks, one per test, each printing a single PASS/FAIL line.

Every comparison is exact: the library computes over the integers (or exact
quotients of them), so there are no tolerances to tune.  Run with ``-s`` to
see the lines as they print; under the default capture they still appear in
the report for any failing criterion.
"""

import functools
import sys
import time
import random

from ctlhom.chainalg import (
    INTEGER,
    RATIONAL,
    AbelianGroup,
    TRIVIAL_GROUP,
    bm_homology,
    boundary_matrix,
    cohomology,
    cohomology_c,
    euler_characteristic,
    homology,
    pairing_matrix,
    parse_coefficients,
    present_homology,
    unnormalized_boundary_matrix,
)
from ctlhom.corpus import (
    build,
    circle,
    cylinder,
    cylinder_projection,
    fold_line_to_ray,
    identity_on,
    line,
    plane,
    point,
    ray,
    rp2,
    sphere,
    torus,
)
from ctlhom.ctlset import (
    ALL,
    ConstantAssignment,
    ControlledMap,
    ShiftAssignment,
    cofinal_tail,
    finite_list,
    is_controlled,
    max_ctl,
    min_ctl,
    naturals,
    validate_map,
)
from ctlhom.laws import run_all
from ctlhom.maps import Chain, Cochain, boundary, coboundary, pairing, proper_controlled_equivalence
from ctlhom.snf import IntMatrix, smith_normal_form
from ctlhom.sset import standard_simplex


def criterion(label):
    """Print the verdict on the real stdout so it survives pytest's capture
    (and lands in teed logs) whether or not -s is given."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL", file=sys.__stdout__)
                raise
            print(f"ACCEPTANCE {label}: PASS", file=sys.__stdout__)
        return run
    return wrap


@criterion("1/8 finite homology matches the catalogue")
def test_finite_homology_oracles():
    Z = AbelianGroup(1)
    cases = {
        "point": {0: Z},
        "circle": {0: Z, 1: Z},
        "torus": {0: Z, 1: AbelianGroup(2), 2: Z},
        "rp2": {0: Z, 1: AbelianGroup(0, (2,)), 2: TRIVIAL_GROUP},
        "sphere(2)": {0: Z, 1: TRIVIAL_GROUP, 2: Z},
        "sphere(3)": {0: Z, 1: TRIVIAL_GROUP, 2: TRIVIAL_GROUP, 3: Z},
    }
    for name, expected in cases.items():
        result = homology(build(name))
        for n, g in expected.items():
            assert result.group(n) == g, (name, n, result.group(n))
    two = parse_coefficients("z/2")
    assert [homology(rp2(), two).group(n) for n in (0, 1, 2)] \
        == [AbelianGroup(1)] * 3
    assert [homology(rp2(), RATIONAL).group(n) for n in (0, 1, 2)] \
        == [AbelianGroup(1), TRIVIAL_GROUP, TRIVIAL_GROUP]


@criterion("2/8 Borel-Moore homology distinguishes the ends")
def test_borel_moore_oracles():
    bm_line = bm_homology(line(), window=3)
    assert bm_line.group(0) == TRIVIAL_GROUP
    assert bm_line.group(1) == AbelianGroup(1)
    bm_ray = bm_homology(ray(), window=3)
    assert bm_ray.group(0) == TRIVIAL_GROUP
    assert bm_ray.group(1) == TRIVIAL_GROUP
    bm_plane = bm_homology(plane(), window=3)
    assert bm_plane.group(0) == TRIVIAL_GROUP
    assert bm_plane.group(1) == TRIVIAL_GROUP
    assert bm_plane.group(2) == AbelianGroup(1)
    # ordinary homology cannot tell these apart
    assert homology(line()).group(0) == homology(ray()).group(0) == AbelianGroup(1)


@criterion("3/8 minimal and maximal control structures behave")
def test_control_structure_contrast():
    N = naturals()
    assert is_controlled(min_ctl(N), finite_list(0, 1, 2))
    assert not is_controlled(min_ctl(N), ALL)
    assert not is_controlled(min_ctl(N), cofinal_tail(7))
    assert is_controlled(max_ctl(N), ALL)
    assert is_controlled(max_ctl(N), cofinal_tail(7))

    collapse = ControlledMap(max_ctl(N), max_ctl(N), ConstantAssignment(0))
    verdict = validate_map(collapse)
    assert not verdict.ok and any("infinite" in v for v in verdict.violations)

    shift = ControlledMap(max_ctl(N), min_ctl(N), ShiftAssignment(1))
    verdict = validate_map(shift)
    assert not verdict.ok and any("not controlled" in v for v in verdict.violations)

    assert validate_map(
        ControlledMap(max_ctl(N), max_ctl(N), ShiftAssignment(1))).ok
    assert validate_map(
        ControlledMap(min_ctl(N), min_ctl(N), ShiftAssignment(1))).ok


@criterion("4/8 compactly supported cohomology matches the catalogue")
def test_compact_support_oracles():
    cc_line = cohomology_c(line(), window=3)
    assert cc_line.group(0) == TRIVIAL_GROUP
    assert cc_line.group(1) == AbelianGroup(1)
    cc_ray = cohomology_c(ray(), window=3)
    assert cc_ray.group(0) == TRIVIAL_GROUP
    assert cc_ray.group(1) == TRIVIAL_GROUP
    for X in (torus(), rp2(), sphere(2)):
        assert cohomology_c(X).groups == cohomology(X).groups


@criterion("5/8 the pairing is adjoint and unimodular where it should be")
def test_pairing_oracles():
    result = pairing_matrix(line(), 1, window=3)
    assert result.bm_group == result.cc_group == AbelianGroup(1)
    assert result.matrix in (((1,),), ((-1,),))

    rng = random.Random(20260816)
    complexes = [circle(), torus(), rp2(), sphere(3), standard_simplex(3)]
    checked = 0
    while checked < 1000:
        X = rng.choice(complexes)
        n = rng.randrange(0, 4)
        upper = list(X.cells(n + 1))
        lower = list(X.cells(n))
        if not upper or not lower:
            continue
        c = Chain(X, n + 1,
                  {cell: rng.randint(-5, 5) for cell in upper})
        phi = Cochain(X, n,
                      {cell: rng.randint(-5, 5) for cell in lower})
        assert pairing(coboundary(phi), c) == pairing(phi, boundary(c))
        checked += 1


@criterion("6/8 the finite-model laws hold exhaustively")
def test_laws_suite():
    started = time.monotonic()
    results = run_all(max_carrier=3)
    elapsed = time.monotonic() - started
    failures = [r for r in results if not r.ok]
    assert not failures, [(r.name, r.counterexample) for r in failures]
    assert sum(r.cases for r in results) > 40000
    assert elapsed < 60.0, f"laws took {elapsed:.1f}s"


@criterion("7/8 properness coincides with the controlled-map conditions")
def test_properness_equivalence():
    for f in (identity_on("ray"), identity_on("line"), identity_on("cylinder"),
              fold_line_to_ray()):
        report = proper_controlled_equivalence(f)
        assert report.agree and report.proper_ok and report.controlled_ok

    report = proper_controlled_equivalence(cylinder_projection())
    assert report.agree
    assert not report.proper_ok and not report.controlled_ok
    assert report.proper_witness and "keeps growing" in report.proper_witness
    assert report.controlled_witness and "infinite" in report.controlled_witness


@criterion("8/8 the chain-level machinery is internally consistent")
def test_chain_machinery():
    spaces = [point(), circle(), torus(), rp2(), sphere(2), standard_simplex(3)]
    for X in spaces:
        for n in range(1, 5):
            assert (boundary_matrix(X, n) @ boundary_matrix(X, n + 1)).is_zero()

    for X in (circle(), rp2(), standard_simplex(2)):
        for n in (0, 1, 2):
            normalized = present_homology(
                boundary_matrix(X, n), boundary_matrix(X, n + 1)).group
            raw = present_homology(
                unnormalized_boundary_matrix(X, n),
                unnormalized_boundary_matrix(X, n + 1)).group
            assert normalized == raw

    assert euler_characteristic(homology(torus(), RATIONAL)) == 0
    assert euler_characteristic(homology(rp2(), RATIONAL)) == 1
    assert euler_characteristic(homology(sphere(2), RATIONAL)) == 2

    rng = random.Random(4)
    for _ in range(25):
        rows, cols = rng.randrange(0, 5), rng.randrange(0, 5)
        m = IntMatrix(rows, cols, tuple(
            tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows)))
        assert smith_normal_form(m).verify()
