import time
from collections import Counter
from itertools import product
from types import SimpleNamespace

import pytest

from ctlhom import ctlset, delta, laws
from ctlhom.ctlset import (
    AdjunctionReport,
    ConstantAssignment,
    ControlledMap,
    MapReport,
    ShiftAssignment,
    StructureReport,
    TableAssignment,
    adjunction_check,
    finite_carrier,
    min_ctl,
)
from ctlhom.delta import MonotoneMap
from ctlhom.sset import all_simplices


def test_all_laws_hold_on_small_models():
    started = time.monotonic()
    results = laws.run_all(max_carrier=3)
    elapsed = time.monotonic() - started
    for r in results:
        assert r.ok, f"{r.name}: {r.counterexample}"
        assert r.cases > 0, r.name
    assert len(results) == 9
    assert elapsed < 60.0


def test_adjunction_law_counts_both_sides():
    r = laws.min_forget_adjunction(max_carrier=2)
    assert r.ok
    assert r.cases > 0


def test_associativity_covers_mixed_sizes():
    r = laws.category_associativity(max_carrier=2)
    assert r.ok
    # composable triples over carriers of size 0..2 plus the spot checks
    assert r.cases > 100


def test_catalogue_closure_reports_its_cases():
    r = laws.assignment_catalogue_closure()
    assert r.ok
    assert r.cases == 360


def test_adjacency_law_checks_sset_adjacent(monkeypatch):
    # the law compares the ordinal-map definition with sset.adjacent itself
    monkeypatch.setattr(laws, "adjacent", lambda X, x, y: True)
    r = laws.adjacency_vertex_reduction()
    assert not r.ok
    assert "arrows say False, vertices say True" in r.counterexample


def test_associativity_reports_a_corrupted_composite(monkeypatch):
    # compose(swap, swap) on a 2-element carrier answers a constant instead
    # of the identity, so (swap . swap) . f != swap . (swap . f) for f = {0: 1}
    real = laws.compose
    swap = {0: 1, 1: 0}

    def corrupted(g, f):
        if g.assignment.mapping == swap and f.assignment.mapping == swap:
            return ControlledMap(f.source, g.target, TableAssignment({0: 0, 1: 0}))
        return real(g, f)

    monkeypatch.setattr(laws, "compose", corrupted)
    r = laws.category_associativity(max_carrier=2)
    assert not r.ok
    assert r.counterexample == (
        "sizes (1,2,2,2): f={0: 1}, g={0: 1, 1: 0}, h={0: 1, 1: 0}"
    )


def test_epi_mono_law_rejects_a_factorization_through_a_larger_ordinal(monkeypatch):
    # a non-surjective f "factored" as f itself followed by the identity of
    # its target: it composes back, but through an ordinal larger than its image
    real = delta.epi_mono_factor

    def too_large(f):
        if f.is_surjective:
            return real(f)
        return f, delta.identity(f.target_dim)

    monkeypatch.setattr(delta, "epi_mono_factor", too_large)
    r = laws.epi_mono_factorization()
    assert not r.ok
    assert r.cases == 2
    assert r.counterexample == (
        "factorization of MonotoneMap(0->1, [0]) has a first factor "
        "MonotoneMap(0->1, [0]) that is not surjective"
    )


def test_epi_mono_law_rejects_a_factorization_through_a_smaller_ordinal(monkeypatch):
    # a non-injective f "factored" as the identity of its source followed by
    # f itself: it composes back, but its second factor is not injective
    real = delta.epi_mono_factor

    def too_small(f):
        if f.is_injective:
            return real(f)
        return delta.identity(f.source_dim), f

    monkeypatch.setattr(delta, "epi_mono_factor", too_small)
    r = laws.epi_mono_factorization()
    assert not r.ok
    assert r.cases == 16
    assert r.counterexample == (
        "factorization of MonotoneMap(1->0, [0, 0]) has a second factor "
        "MonotoneMap(1->0, [0, 0]) that is not injective"
    )


def test_epi_mono_law_rejects_a_factorization_of_another_map(monkeypatch):
    # every map "factored" as the factorization of the constant map at 0
    real = delta.epi_mono_factor

    def of_a_constant(f):
        return real(delta.MonotoneMap(f.source_dim, f.target_dim,
                                      (0,) * (f.source_dim + 1)))

    monkeypatch.setattr(delta, "epi_mono_factor", of_a_constant)
    r = laws.epi_mono_factorization()
    assert not r.ok
    assert r.counterexample == (
        "factorization of MonotoneMap(0->1, [1]) does not compose back"
    )


def _swap_keys(table, f, g):
    table[f], table[g] = table[g], table[f]


_AT_ZERO, _AT_ONE = MonotoneMap(0, 1, (0,)), MonotoneMap(0, 1, (1,))
_ID_ZERO = delta.identity(0)


@pytest.mark.parametrize("mutate, cases, counterexample", [
    # the entry of a map is lost
    (lambda t: t.pop(_AT_ONE), 3, "MonotoneMap(0->1, [1]) has 0 factorizations"),
    # the same factorization is listed twice
    (lambda t: t[_AT_ZERO].append(t[_AT_ZERO][0]), 2,
     "MonotoneMap(0->1, [0]) has 2 factorizations"),
    # the table is keyed wrongly: each map finds the other's factorization
    (lambda t: _swap_keys(t, _AT_ZERO, _AT_ONE), 2,
     "MonotoneMap(0->1, [0]) has a second factorization "
     "MonotoneMap(0->0, [0]), MonotoneMap(0->1, [1])"),
], ids=["entry-lost", "listed-twice", "keyed-wrongly"])
def test_epi_mono_law_checks_each_map_against_its_table_entry(
    monkeypatch, mutate, cases, counterexample
):
    real = laws._factorization_table

    def mutated(n, m):
        table = real(n, m)
        if (n, m) == (0, 1):
            mutate(table)
        return table

    monkeypatch.setattr(laws, "_factorization_table", mutated)
    r = laws.epi_mono_factorization()
    assert not r.ok
    assert (r.cases, r.counterexample) == (cases, counterexample)


_PINNED_CASES = {
    0: (2, 1, 1, 16, 360, 32, 371, 456, 25888),
    1: (6, 3, 5, 76, 360, 64, 371, 456, 25888),
    2: (22, 11, 211, 1768, 360, 96, 371, 456, 25888),
    3: (278, 60, 19894, 1768, 360, 128, 371, 456, 25888),
}


@pytest.mark.parametrize("max_carrier", sorted(_PINNED_CASES))
def test_law_case_counts_are_pinned(max_carrier):
    names = (
        "generated-structure-axioms", "category-identity",
        "category-associativity", "homset-structure-independence",
        "assignment-catalogue-closure", "min-forget-adjunction",
        "cosimplicial-identities", "epi-mono-factorization",
        "adjacency-vertex-reduction",
    )
    results = laws.run_all(max_carrier)
    assert [(r.name, r.ok, r.cases) for r in results] == [
        (name, True, cases) for name, cases in zip(names, _PINNED_CASES[max_carrier])
    ]


# ------------------------------------------------------ every case is called

def _counting(monkeypatch, name):
    """Replace ``laws.<name>`` by a wrapper that records every call's arguments."""
    calls = []
    real = getattr(laws, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(laws, name, spy)
    return calls


def test_identity_law_composes_both_sides_of_every_case(monkeypatch):
    calls = _counting(monkeypatch, "compose")
    r = laws.category_identity(3)
    assert r.ok and r.cases == 60
    assert len(calls) == 2 * r.cases


def test_associativity_composes_both_sides_of_every_case(monkeypatch):
    # hom-set sizes b**a between carriers of sizes a -> b
    calls = _counting(monkeypatch, "compose")
    r = laws.category_associativity(3)
    tuples = list(product(range(3), repeat=4)) + [(3, 3, 3, 3)]
    triples = sum(b ** a * c ** b * d ** c for a, b, c, d in tuples)
    inner = sum(c ** b * (d ** c + b ** a) for a, b, c, d in tuples)
    assert r.ok and r.cases == triples == 19894
    assert len(calls) == 2 * r.cases + inner


def test_adjacency_law_calls_the_action_and_adjacent_on_every_case(monkeypatch):
    actions = _counting(monkeypatch, "apply_ordinal_map")
    pairs = _counting(monkeypatch, "adjacent")
    r = laws.adjacency_vertex_reduction()
    assert r.ok and r.cases == 25888
    assert len(pairs) == r.cases
    # the action once per (simplex, map into its dimension), on every space
    spaces = list(dict.fromkeys(X for X, _, _ in actions))
    assert [X.name for X in spaces] == ["point", "circle", "delta(2)", "sphere(1)", "rp2"]
    expected = Counter(
        (X, x, f)
        for X in spaces
        for n in range(4)
        for x in all_simplices(X, n)
        for k in range(4)
        for f in delta.all_monotone_maps(k, n)
    )
    assert Counter(actions) == expected
    # and adjacent once per ordered pair of simplices of one space
    assert sum(sum(len(all_simplices(X, n)) for n in range(4)) ** 2 for X in spaces) == r.cases


# ------------------------------------------- a planted fault in every law

def _plant(monkeypatch, owner, name, wrong):
    """Replace ``owner.<name>`` by ``wrong(real)``, a faulty version of it."""
    monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))


def _verdict(r):
    return r.ok, r.cases, r.counterexample


def test_structure_law_reports_a_rejected_presentation(monkeypatch):
    # every presentation with a generator is declared to break an axiom
    _plant(monkeypatch, laws, "validate_structure", lambda real: lambda X: (
        StructureReport(ok=False, violations=["not closed under unions"])
        if X.structure.generators else real(X)))
    assert _verdict(laws.generated_structure_axioms()) == (
        False, 2, "carrier size 0, generators [()]: not closed under unions")


def test_identity_law_reports_a_wrong_identity(monkeypatch):
    # the identity of a 2-element carrier is the constant map at 0
    def wrong(real):
        def identity(X):
            if len(X.carrier.elements) != 2:
                return real(X)
            return ControlledMap(X, X, TableAssignment(dict.fromkeys(X.carrier.elements, 0)))
        return identity

    _plant(monkeypatch, laws, "identity_map", wrong)
    assert _verdict(laws.category_identity()) == (False, 7, "{0: 1} between sizes (1, 2)")


def test_homset_law_reports_the_rejected_table(monkeypatch):
    # maps into a 2-element carrier that hit 0 are rejected; the first
    # is the first table of its (X, Y) block, so the count stops there
    _plant(monkeypatch, laws, "validate_map", lambda real: lambda f: (
        MapReport(ok=False, violations=["rejected"])
        if len(f.target.carrier.elements) == 2 and 0 in f.assignment.mapping.values()
        else real(f)))
    assert _verdict(laws.homset_structure_independence()) == (
        False, 149,
        "{0: 0} rejected between ControlledSet(Carrier([0]), min) "
        "and ControlledSet(Carrier([0, 1]), min)")


def test_adjunction_law_reports_a_failed_bijection(monkeypatch):
    # the adjunction is declared to fail from a 1-element set into max structures
    _plant(monkeypatch, laws, "adjunction_check", lambda real: lambda S, X: (
        AdjunctionReport(ok=False, set_map_count=1, controlled_map_count=0,
                         failures=["first", "second", "third"])
        if X.structure.kind == "max" and len(S.elements) == 1 else real(S, X)))
    assert _verdict(laws.min_forget_adjunction()) == (
        False, 34, "|S|=1, X=ControlledSet(Carrier([]), max): ['first', 'second']")


def test_cosimplicial_law_stops_at_the_first_broken_identity(monkeypatch):
    # coface(1, 2) answers coface(1, 1); the second identity already fails
    _plant(monkeypatch, delta, "coface", lambda real: lambda n, i: (
        real(1, 1) if (n, i) == (1, 2) else real(n, i)))
    assert _verdict(laws.cosimplicial_identities()) == (
        False, 2, "d^2 d^0 != d^0 d^1 at n=0")


_SHIFT_BY_TWO = ShiftAssignment(2, {})  # s1 . s1, a composite but no endo of the law


def _constant_after_shift_by_two(real):
    # a wrong composite for the shift by two after an endo
    def compose(g, f):
        if g.assignment == _SHIFT_BY_TWO and not isinstance(f.assignment, TableAssignment):
            return ControlledMap(f.source, g.target, ConstantAssignment(0))
        return real(g, f)
    return compose


def _table_after_shift_by_two(real):
    # a wrong composite for the shift by two after a table
    def compose(g, f):
        if g.assignment == _SHIFT_BY_TWO and isinstance(f.assignment, TableAssignment):
            return ControlledMap(f.source, g.target, TableAssignment({0: 0, 1: 0, 2: 0}))
        return real(g, f)
    return compose


_S0 = "ShiftAssignment(offset=0, patch={})"
_S1 = "ShiftAssignment(offset=1, patch={})"


@pytest.mark.parametrize("wrong, cases, counterexample", [
    (lambda real: lambda g, f: SimpleNamespace(assignment="elsewhere"), 1,
     f"{_S0} . {_S0} left the catalogue"),
    (lambda real: lambda g, f: real(f, g), 9,
     f"ShiftAssignment(offset=2, patch={{0: 5}}) . {_S1} at 0: 6 != 3"),
    (_constant_after_shift_by_two, 44, f"associativity: {_S1}, {_S1}, {_S0}"),
    (_table_after_shift_by_two, 260, f"table associativity: {_S1}, {_S1}, {{0: 0, 1: 7, 2: 3}}"),
], ids=["leaves-the-catalogue", "pointwise-mismatch", "endo-associativity",
        "table-associativity"])
def test_catalogue_law_reports_each_kind_of_failure(monkeypatch, wrong, cases, counterexample):
    _plant(monkeypatch, laws, "compose", wrong)
    assert _verdict(laws.assignment_catalogue_closure()) == (False, cases, counterexample)


def test_the_runner_counts_every_case_up_to_the_first_counterexample():
    r = laws._law("demo", iter([None, None, "third fails", "never read"]))
    assert _verdict(r) == (False, 3, "third fails") and r.note == ""
    r = laws._law("demo", iter([None, None]), note="two cases")
    assert _verdict(r) == (True, 2, None) and r.note == "two cases"
    assert _verdict(laws._law("demo", iter([]))) == (True, 0, None)


def test_the_adjunction_check_records_a_rejected_table(monkeypatch):
    # the swap of a 2-element carrier is declared not controlled
    _plant(monkeypatch, ctlset, "validate_map", lambda real: lambda f: (
        MapReport(ok=False, violations=["planted"])
        if f.assignment.mapping == {0: 1, 1: 0} else real(f)))
    failure = "set map {0: 1, 1: 0} fails to be controlled: ['planted']"
    two = finite_carrier(range(2))
    report = adjunction_check(two, min_ctl(two))
    assert (report.ok, report.set_map_count, report.controlled_map_count, report.failures) == (
        False, 4, 3, [failure])
    assert _verdict(laws.min_forget_adjunction()) == (
        False, 75, f"|S|=2, X=ControlledSet(Carrier([0, 1]), min): {[failure]}")


@pytest.mark.parametrize("law", [laws.cosimplicial_identities, laws.epi_mono_factorization,
                                 laws.adjacency_vertex_reduction], ids=lambda law: law.__name__)
def test_the_fixed_size_laws_take_no_bound(law):
    """Their sizes are fixed, so no bound can empty them into a vacuous pass."""
    with pytest.raises(TypeError):
        law(-1)


_BOUNDED_LAWS = [laws.generated_structure_axioms, laws.category_identity,
                 laws.category_associativity, laws.homset_structure_independence,
                 laws.min_forget_adjunction, laws.run_all]


@pytest.mark.parametrize("law", _BOUNDED_LAWS, ids=lambda law: law.__name__)
@pytest.mark.parametrize("bound", [-1, laws.MAX_CARRIER + 1, 5, 2.5, True, None])
def test_a_carrier_bound_outside_the_library_range_is_refused(law, bound):
    message = f"max_carrier must be an integer in 0..{laws.MAX_CARRIER}, not {bound!r}"
    with pytest.raises(ValueError) as err:
        law(bound)
    assert type(err.value) is ValueError and str(err.value) == message
