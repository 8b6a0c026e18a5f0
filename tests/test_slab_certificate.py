"""The slab certificate and the slab's exact sequence: where the slab's
chains relative to one of its boundaries are acyclic, every later transition
is an isomorphism, so the engine presents no stage past the one the
certificate names; elsewhere a transition whose neighbouring degree is an
isomorphism is decided from the slab's relative homology, without bases."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from ctlhom import chainalg
from ctlhom.chainalg import (
    THEORY_DRIVERS,
    _THEORIES,
    NonStabilizationError,
    StageComplex,
    _StageSystem,
    _cell_map,
    _pull,
    _push,
    bm_homology,
    cohomology,
    homology,
    is_transition_isomorphism,
)
from ctlhom.corpus import balloon_ray, cylinder, infinite_star, line, plane, ray
from ctlhom.sset import SimplicialError
from exhaustions import gluings, lollipops, relay, telescope
from test_sset import every_exhaustion

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


def _stage(space, depth: int, relative: bool, stages=None) -> StageComplex:
    """A stage made afresh, or kept in ``stages`` when it is given."""
    stages = {} if stages is None else stages
    if (depth, relative) not in stages:
        trunc = space.truncate(depth)
        stages[depth, relative] = StageComplex(
            trunc.complex, frozenset(trunc.frontier if relative else ()))
    return stages[depth, relative]


def _transition_is_iso(space, relative, dual, i, n, stages=None) -> bool:
    """The degree-n transition between stages i and i+1, presented and
    tested directly."""
    a, b = (i + 1, i) if relative else (i, i + 1)
    source, target = _stage(space, a, relative, stages), _stage(space, b, relative, stages)
    p_source = source.present([n], dual)[n]
    p_target = target.present([n], dual)[n]
    cells = _cell_map(source.basis(n), target.basis(n))
    if dual:
        return is_transition_isomorphism(p_target, p_source, lambda v: _pull(cells, v))
    size = len(target.basis(n))
    return is_transition_isomorphism(p_source, p_target, lambda v: _push(cells, size, v))


@pytest.mark.parametrize("space,theory", sorted(CERTIFIED_FROM))
def test_the_certificate_holds_where_the_slab_is_acyclic(space, theory):
    """The certificate is the obstruction table with nothing in it; the
    table is read without the local-finiteness gate."""
    relative = _THEORIES[theory][0]
    obstructions = chainalg._slab_obstructions(SPACES[space](), relative)
    assert (None if obstructions != set() else int(relative)) == CERTIFIED_FROM[space, theory]


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


# ------------------------------------------------ the slab's exact sequence

def _system(space, relative: bool) -> _StageSystem:
    """A stage system past the local-finiteness gate: the rule reads only
    finite stages, so it holds on any exhaustion."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chainalg, "is_locally_finite", lambda space: SimpleNamespace(ok=True))
        return _StageSystem(space, relative)


def _check_rule(space, transitions: int) -> int:
    """Every theory's verdicts from one stage system, on the transitions
    below ``transitions`` in every degree up to one past the top, against
    the basis test on stages presented afresh; returns how many verdicts
    neither the certificate nor a basis test gave."""
    top = max(space.base.top_dim, space.slab.top_dim)
    stages, ruled = {}, 0
    for tag, (relative, dual, _) in _THEORIES.items():
        system, tested = _system(space, relative), []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chainalg, "is_transition_isomorphism",
                          lambda *args: tested.append(args) or is_transition_isomorphism(*args))
            for i in range(transitions):
                for n in range(top + 2):
                    assert system.transition_is_iso(i, n, dual) == _transition_is_iso(
                        space, relative, dual, i, n, stages), (tag, i, n)
        certified = 0 if system.certified is None else max(transitions - system.certified, 0)
        ruled += (transitions - certified) * (top + 2) - len(tested)
    return ruled


@every_exhaustion
def test_every_transition_verdict_is_the_basis_test(build):
    """Where the rule covers a variance past its certificate, it decides
    some verdict."""
    space = build()
    covered = any(s.certified is None and s.obstructions is not None
                  for s in (_system(space, False), _system(space, True)))
    assert (_check_rule(space, 6) > 0) == covered


@settings(max_examples=300, deadline=None)
@given(gluings())
def test_every_transition_verdict_is_the_basis_test_on_random_gluings(space):
    _check_rule(space, 4)


def test_a_projection_reads_the_slab_a_degree_below():
    """Relative to the frontier, each lollipop stage has H_1 = Z, the base
    circle, kept by every projection, though the slab relative to its
    out-boundary has H_1 = Z, the in-loop: the cokernel is H_0(slab, out)
    = 0.  Reading the degree itself would refuse the isomorphism."""
    space = lollipops()
    assert chainalg._slab_obstructions(space, True) == {(1, False), (1, True), (2, False), (2, True)}
    assert _check_rule(space, 6) > 0
    system = _system(space, True)
    assert [system.present(i, False, [1])[1].group.free_rank for i in range(1, 7)] == [1] * 6
    assert all(system.transition_is_iso(i, 1, False) for i in range(1, 6))


def test_a_restriction_reads_torsion_a_degree_above():
    """Each telescope stage has H^1 = Z, and restriction multiplies it by 3:
    its cokernel is H^2(slab, in) = Ext(H_1(slab, in)) = Z/3, while
    H^1(slab, in) = 0.  Reading the torsion in its own degree would call
    the restriction an isomorphism."""
    space = telescope()
    assert chainalg._slab_obstructions(space, False) == {(1, False), (2, True)}
    assert _check_rule(space, 6) > 0
    system = _system(space, False)
    assert [system.present(i, True, [1])[1].group.free_rank for i in range(7)] == [1] * 7
    assert not any(system.transition_is_iso(i, 1, True) for i in range(6))


def test_the_relay_reads_bases_only_for_cohomology_in_degree_0(monkeypatch):
    """Homology's degree 1 follows from degree 0 and H_1(slab, in) = Z, and
    cohomology's from degree 2 and H^2(slab, in) = Z; the refusals and
    histories are unchanged."""
    systems, built = [], []
    real_init, real_basis = _StageSystem.__init__, chainalg._basis
    monkeypatch.setattr(_StageSystem, "__init__",
                        lambda self, *args: systems.append(self) or real_init(self, *args))
    monkeypatch.setattr(chainalg, "_basis", lambda *args: built.append(args) or real_basis(*args))
    for driver, tag, based in ((homology, "H", set()),
                               (cohomology, "H_co", {(i, 0) for i in range(4)})):
        built.clear()
        with pytest.raises(NonStabilizationError) as refusal:
            driver(relay(), max_depth=8)
        assert str(refusal.value) == (f"{tag} degree 1 did not stabilize within depth 8 "
                                      "(window 3); groups so far: " + ", ".join(["Z"] * 9))
        assert refusal.value.history == [(1, ["Z"] * 9)]
        assert {(i, n) for i, stage in systems[-1]._stages.items()
                for (n, _), p in stage._presented.items() if "orders" in vars(p)} == based
        assert len(built) == len(based)
