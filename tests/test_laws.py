import time

from ctlhom import laws


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
