import pytest
from hypothesis import given, strategies as st

from ctlhom.ctlset import (
    ALL,
    ConstantAssignment,
    ControlError,
    ControlledMap,
    ShiftAssignment,
    TableAssignment,
    UnsupportedRepresentationError,
    adjunction_check,
    all_set_maps,
    cofinal_tail,
    compose,
    finite_carrier,
    finite_list,
    generated_ctl,
    identity_map,
    is_controlled,
    max_ctl,
    min_ctl,
    naturals,
    same_controlled_sets,
    validate_map,
    validate_structure,
)

N = naturals()
ABC = finite_carrier(["a", "b", "c"])


# ---------------------------------------------------------------- structures

def test_min_and_max_agree_on_finite_carriers():
    assert same_controlled_sets(min_ctl(ABC), max_ctl(ABC))


def test_min_and_max_differ_on_the_naturals():
    assert not same_controlled_sets(min_ctl(N), max_ctl(N))


def test_structure_axioms_hold_for_builtins():
    for X in (min_ctl(ABC), max_ctl(ABC), min_ctl(N), max_ctl(N),
              generated_ctl(ABC, [["a", "b"]])):
        report = validate_structure(X)
        assert report.ok, report.violations


def test_generated_structure_contains_generators():
    X = generated_ctl(ABC, [["a", "b"]])
    assert is_controlled(X, finite_list("a", "b"))
    assert is_controlled(X, finite_list("a"))          # subset closure
    assert is_controlled(X, finite_list("a", "b", "c"))  # union with a finite set


def test_structure_on_a_large_finite_carrier_is_decided_in_closed_form():
    report = validate_structure(generated_ctl(finite_carrier(range(12)), [[0, 1]]))
    assert report.ok and not report.violations
    assert report.controlled_family_size == 4096


def test_controlled_subsets_of_the_naturals():
    """The minimal structure on N admits exactly the finite subsets."""
    assert is_controlled(min_ctl(N), finite_list(1, 2, 3))
    assert not is_controlled(min_ctl(N), ALL)
    assert not is_controlled(min_ctl(N), cofinal_tail(5))
    assert is_controlled(max_ctl(N), ALL)
    assert is_controlled(max_ctl(N), cofinal_tail(5))


# ---------------------------------------------------------------------- maps

def test_identity_is_controlled():
    for X in (min_ctl(ABC), min_ctl(N), max_ctl(N)):
        assert validate_map(identity_map(X)).ok


def test_every_map_from_a_minimal_source_is_controlled():
    X = min_ctl(finite_carrier([0, 1]))
    Y = max_ctl(ABC)
    for table in all_set_maps(X.carrier, Y.carrier):
        assert validate_map(ControlledMap(X, Y, table)).ok


def test_map_from_a_large_finite_source_is_controlled():
    source = min_ctl(finite_carrier(range(20)))
    f = ControlledMap(source, max_ctl(ABC),
                      TableAssignment({x: "abc"[x % 3] for x in range(20)}))
    assert validate_map(f).ok


def test_constant_from_max_naturals_is_not_proper():
    f = ControlledMap(max_ctl(N), max_ctl(N), ConstantAssignment(0))
    report = validate_map(f)
    assert not report.ok
    assert any("fiber over 0 is infinite" in v for v in report.violations)


def test_shift_into_minimal_naturals_has_uncontrolled_image():
    f = ControlledMap(max_ctl(N), min_ctl(N), ShiftAssignment(1))
    report = validate_map(f)
    assert not report.ok
    assert any("not controlled" in v for v in report.violations)


def test_shift_between_max_naturals_is_controlled():
    f = ControlledMap(max_ctl(N), max_ctl(N), ShiftAssignment(2, {0: 7}))
    assert validate_map(f).ok


def test_shift_rejects_negative_offset():
    with pytest.raises(ControlError):
        ShiftAssignment(-1)


def test_shift_drops_redundant_patches():
    assert ShiftAssignment(2, {3: 5}).patch == {}
    assert ShiftAssignment(2, {3: 9}).patch == {3: 9}


def test_table_needs_finite_source():
    with pytest.raises(UnsupportedRepresentationError):
        ControlledMap(min_ctl(N), min_ctl(N), TableAssignment({0: 0}))


def test_table_must_cover_the_carrier():
    with pytest.raises(ControlError, match=r"missing values for \['b', 'c'\]"):
        ControlledMap(min_ctl(ABC), min_ctl(ABC), TableAssignment({"a": "a"}))
    # a missing value is reported before a value outside the target
    with pytest.raises(ControlError, match=r"missing values for \['b', 'c'\]"):
        ControlledMap(min_ctl(ABC), min_ctl(ABC), TableAssignment({"a": "z"}))


def test_table_values_must_lie_in_the_target():
    table = TableAssignment({"a": "a", "b": "z", "c": "c"})
    with pytest.raises(ControlError, match="value 'z' outside target carrier"):
        ControlledMap(min_ctl(ABC), min_ctl(ABC), table)
    with pytest.raises(ControlError, match="value -1 outside target carrier"):
        ControlledMap(min_ctl(ABC), min_ctl(N), TableAssignment({"a": 0, "b": -1, "c": -2}))
    assert ControlledMap(min_ctl(ABC), min_ctl(N), TableAssignment({"a": 0, "b": 9, "c": 2}))
    # an unhashable value is in no carrier, as before membership used a set
    with pytest.raises(ControlError, match=r"value \['a'\] outside target carrier"):
        ControlledMap(min_ctl(ABC), min_ctl(ABC), TableAssignment({"a": ["a"], "b": "b", "c": "c"}))
    assert ["a"] not in ABC and "a" in ABC and "a" not in N


def test_table_keys_must_be_exactly_the_source():
    src = min_ctl(finite_carrier([0]))
    with pytest.raises(ControlError, match=r"^assignment has values for \[99\] outside source carrier$"):
        ControlledMap(src, src, TableAssignment({0: 0, 99: "zzz"}))
    # a missing value, then a value outside the target, are reported first
    with pytest.raises(ControlError, match=r"missing values for \['c'\]"):
        ControlledMap(min_ctl(ABC), min_ctl(ABC), TableAssignment({"a": "a", "b": "z", "q": 0}))
    with pytest.raises(ControlError, match="value 'z' outside target carrier"):
        ControlledMap(min_ctl(ABC), min_ctl(ABC),
                      TableAssignment({"a": "a", "b": "z", "c": "c", "q": 0}))
    # the same holds for a table into the naturals
    with pytest.raises(ControlError, match=r"values for \['q'\] outside source"):
        ControlledMap(min_ctl(ABC), min_ctl(N), TableAssignment({"a": 0, "b": 1, "c": 2, "q": 3}))


def test_carrier_members_leave_equality_hashing_and_repr_alone():
    again = finite_carrier(["a", "b", "c"])
    assert again == ABC and hash(again) == hash(ABC) and again is not ABC
    assert repr(ABC) == "Carrier(['a', 'b', 'c'])"
    assert finite_carrier(["c", "b", "a"]) != ABC


# ------------------------------------------------------------- composition

def test_compose_tables():
    X = min_ctl(finite_carrier([0, 1]))
    f = ControlledMap(X, X, TableAssignment({0: 1, 1: 0}))
    g = compose(f, f)
    assert g.assignment.mapping == {0: 0, 1: 1}


def test_compose_shifts_stays_in_catalogue():
    X = max_ctl(N)
    f = ControlledMap(X, X, ShiftAssignment(1, {0: 5}))
    g = ControlledMap(X, X, ShiftAssignment(2, {6: 0}))
    h = compose(g, f)
    assert isinstance(h.assignment, ShiftAssignment)
    for n in range(20):
        assert h.evaluate(n) == g.evaluate(f.evaluate(n))


def test_compose_constant_then_shift():
    X = max_ctl(N)
    f = ControlledMap(X, X, ConstantAssignment(3))
    g = ControlledMap(X, X, ShiftAssignment(4))
    h = compose(g, f)
    assert isinstance(h.assignment, ConstantAssignment)
    assert h.evaluate(11) == 7


def test_compose_checks_the_middle_of_distinct_objects():
    # equal presentations built separately still compose
    f = ControlledMap(min_ctl(ABC), min_ctl(ABC), TableAssignment({"a": "b", "b": "c", "c": "a"}))
    g = ControlledMap(max_ctl(ABC), min_ctl(ABC), TableAssignment({"a": "a", "b": "a", "c": "c"}))
    assert compose(g, f).assignment.mapping == {"a": "a", "b": "c", "c": "a"}
    h = ControlledMap(min_ctl(finite_carrier("ab")), min_ctl(ABC), TableAssignment({"a": "a", "b": "a"}))
    with pytest.raises(ControlError, match="carriers do not line up"):
        compose(h, f)


def test_compose_requires_matching_middle_structure():
    f = ControlledMap(max_ctl(N), min_ctl(N), ShiftAssignment(0))
    g = ControlledMap(max_ctl(N), max_ctl(N), ShiftAssignment(0))
    with pytest.raises(ControlError):
        compose(g, f)


@st.composite
def composable_tables(draw):
    """f: A -> B and g: B -> C, tables between carriers of size <= 4 with
    elements of different types, each structure minimal or maximal."""
    c = draw(st.integers(0, 4))
    b = draw(st.integers(0, 4 if c else 0))
    a = draw(st.integers(0, 4 if b else 0))
    A, B, C = (draw(st.sampled_from((min_ctl, max_ctl)))(finite_carrier(elements))
               for elements in (range(a), [f"b{i}" for i in range(b)],
                                [("c", i) for i in range(c)]))

    def table(X, Y):
        xs, ys = X.carrier.elements, Y.carrier.elements
        values = draw(st.lists(st.sampled_from(ys), min_size=len(xs), max_size=len(xs))) if ys else []
        return ControlledMap(X, Y, TableAssignment(dict(zip(xs, values))))

    return table(A, B), table(B, C)


@given(composable_tables())
def test_table_composites_equal_the_checked_construction(maps):
    f, g = maps
    gf = compose(g, f)
    checked = ControlledMap(f.source, g.target, TableAssignment(
        {x: g.evaluate(f.evaluate(x)) for x in f.source.carrier.elements}))
    assert type(gf) is ControlledMap and gf == checked
    assert list(gf.assignment.mapping) == list(checked.assignment.mapping)


# -------------------------------------------------------------- adjunction

@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_min_is_left_adjoint_to_forget(size):
    S = finite_carrier(list(range(size)))
    for X in (min_ctl(ABC), max_ctl(ABC), generated_ctl(ABC, [["b", "c"]])):
        report = adjunction_check(S, X)
        assert report.ok, report.failures
        assert report.set_map_count == report.controlled_map_count
        assert report.set_map_count == len(ABC.elements) ** size
