"""The slab certificate: where the slab's chains relative to one of its
boundaries are acyclic, every later transition is an isomorphism, so the
engine presents no stage past the one the certificate names."""

import pytest

from ctlhom import chainalg
from ctlhom.chainalg import (
    THEORY_DRIVERS,
    _THEORIES,
    StageComplex,
    _cell_map,
    _pull,
    _push,
    bm_homology,
    cohomology,
    is_transition_isomorphism,
)
from ctlhom.corpus import balloon_ray, cylinder, infinite_star, line, plane, ray
from ctlhom.sset import SimplicialError
from exhaustions import relay

SPACES = {"ray": ray, "line": line, "plane": plane, "cylinder": cylinder,
          "relay": relay, "balloon_ray": balloon_ray, "infinite_star": infinite_star}
DEEPEST = 8

# the stage each theory is certified from, or None where the slab is not
# acyclic relative to the boundary the theory reads (or, for a projection,
# where that boundary meets the other one: the infinite star's spokes glue
# in and out at the same vertex)
CERTIFIED_FROM = {
    **{(space, theory): 1 if _THEORIES[theory][0] else 0
       for space in ("ray", "line", "plane", "cylinder") for theory in THEORY_DRIVERS},
    ("infinite_star", "H"): 0, ("infinite_star", "H_co"): 0,
    ("infinite_star", "H_BM"): None, ("infinite_star", "H_c"): None,
    ("relay", "H"): None, ("relay", "H_co"): None,
    ("relay", "H_BM"): 1, ("relay", "H_c"): 1,
    **{("balloon_ray", theory): None for theory in THEORY_DRIVERS},
}


def _stage(space, depth: int, relative: bool) -> StageComplex:
    trunc = space.truncate(depth)
    return StageComplex(trunc.complex, frozenset(trunc.frontier if relative else ()))


def _transition_is_iso(space, relative, dual, i, n) -> bool:
    """The degree-n transition between stages i and i+1, presented and
    tested directly."""
    a, b = (i + 1, i) if relative else (i, i + 1)
    source, target = _stage(space, a, relative), _stage(space, b, relative)
    p_source = source.present([n], dual)[n]
    p_target = target.present([n], dual)[n]
    cells = _cell_map(source.basis(n), target.basis(n))
    if dual:
        return is_transition_isomorphism(p_target, p_source, lambda v: _pull(cells, v))
    size = len(target.basis(n))
    return is_transition_isomorphism(p_source, p_target, lambda v: _push(cells, size, v))


@pytest.mark.parametrize("space,theory", sorted(CERTIFIED_FROM))
def test_the_certificate_holds_where_the_slab_is_acyclic(space, theory):
    relative = _THEORIES[theory][0]
    assert chainalg._slab_certified_from(SPACES[space](), relative) \
        == CERTIFIED_FROM[space, theory]


@pytest.mark.parametrize("space,theory", sorted(
    key for key, stage in CERTIFIED_FROM.items() if stage is not None))
def test_every_certified_transition_is_an_isomorphism(space, theory):
    relative, dual, _ = _THEORIES[theory]
    exhaustion = SPACES[space]()
    top = max(exhaustion.base.top_dim, exhaustion.slab.top_dim)
    for i in range(CERTIFIED_FROM[space, theory], DEEPEST + 1):
        for n in range(top + 2):
            assert _transition_is_iso(exhaustion, relative, dual, i, n), (i, n)


def test_a_projection_from_stage_0_is_tested_not_certified():
    """The line's two chains share its origin at stage 0, so the slab's
    acyclicity says nothing about the first projection, which is no
    isomorphism in degree 1."""
    assert not _transition_is_iso(line(), True, False, 0, 1)


def test_the_certificate_stays_behind_the_local_finiteness_gate():
    """The infinite star's homology is certified, but it has no theory."""
    for driver in THEORY_DRIVERS.values():
        with pytest.raises(SimplicialError, match="not locally finite"):
            driver(infinite_star())


def _presented_depths(monkeypatch, space, run) -> set:
    """The stages of ``space`` that ``run`` presents, by depth; the slab's
    own presentation for the certificate is left out."""
    presented = []
    real = StageComplex.present

    def spy(stage, degrees, dual):
        presented.append(stage.complex)
        return real(stage, degrees, dual)

    monkeypatch.setattr(StageComplex, "present", spy)
    run(space)
    monkeypatch.undo()
    depth_of = {space.truncate(d).complex: d for d in range(DEEPEST + 1)}
    assert all(c in depth_of or c is space.slab for c in presented)
    return {depth_of[c] for c in presented if c is not space.slab}


def test_certified_theories_present_only_stages_0_and_1(monkeypatch):
    assert _presented_depths(monkeypatch, cylinder(),
                             lambda s: bm_homology(s, window=6)) == {0, 1}
    assert _presented_depths(monkeypatch, plane(), cohomology) == {0}


def test_an_uncertified_theory_presents_every_stage_it_tests(monkeypatch):
    assert _presented_depths(monkeypatch, relay(),
                             lambda s: pytest.raises(chainalg.NonStabilizationError,
                                                     cohomology, s, max_depth=DEEPEST)) \
        == set(range(DEEPEST + 1))
