import copy
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from ctlhom.ctlset import (
    ALL,
    MIN,
    NATURALS,
    Carrier,
    ConstantAssignment,
    ControlError,
    ControlStructure,
    ControlledMap,
    ShiftAssignment,
    SubsetDescriptor,
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


def test_presentations_on_different_carriers_differ():
    assert not same_controlled_sets(max_ctl(ABC), max_ctl(finite_carrier(["a", "b"])))
    assert not same_controlled_sets(max_ctl(ABC), max_ctl(N))


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


@pytest.mark.parametrize("offset,patch,message", [
    (0.5, {}, "shift offset must be an integer, not 0.5"),
    (1, {2: 7.25}, "patch value 7.25 is not an integer"),
    (1, {2: "x"}, "patch value 'x' is not an integer"),
    (1, {0.5: 3}, "patch key 0.5 is not an integer"),
    (1, {"a": 3}, "patch key 'a' is not an integer"),
    (1, {-1: 3}, "patch entries must be natural numbers"),
    (True, {}, "shift offset must be an integer, not True"),
    (0, {0: True}, "patch value True is not an integer"),
    (1, {False: 3}, "patch key False is not an integer"),
], ids=["float offset", "float value", "text value", "float key", "text key", "negative key",
        "bool offset", "bool value", "bool key"])
@pytest.mark.parametrize("use", [
    lambda a: ControlledMap(max_ctl(N), max_ctl(N), a),
    lambda a: validate_map(ControlledMap(max_ctl(N), max_ctl(N), a)),
], ids=["map", "validate"])
def test_shift_refuses_what_is_not_an_integer(use, offset, patch, message):
    """A shift leaves the naturals unless its offset and every patch entry
    are integers; each is refused by name, before any map is made."""
    with pytest.raises(ControlError, match=f"^{re.escape(message)}$"):
        use(ShiftAssignment(offset, patch))


@pytest.mark.parametrize("patch", [[(2, 3)], None], ids=["pairs", "none"])
def test_shift_refuses_a_patch_that_is_not_a_mapping(patch):
    message = f"shift patch must be a mapping, not {patch!r}"
    with pytest.raises(ControlError, match=f"^{re.escape(message)}$"):
        ShiftAssignment(1, patch)


@pytest.mark.parametrize("make, error, message", [
    (lambda: Carrier("reals"), ControlError, "unknown carrier kind 'reals'"),
    (lambda: finite_carrier([1, 1]), ControlError, "carrier elements must be distinct"),
    (lambda: Carrier(NATURALS, (1,)), ControlError, "the naturals carrier takes no element list"),
    (lambda: SubsetDescriptor("odd"), ControlError, "unknown subset descriptor kind 'odd'"),
    (lambda: is_controlled(min_ctl(ABC), finite_list("z")), ControlError,
     "element 'z' outside carrier"),
    (lambda: is_controlled(min_ctl(N), cofinal_tail(-1)), ControlError,
     "tail start must be non-negative"),
    (lambda: is_controlled(min_ctl(ABC), cofinal_tail(0)), ControlError,
     "tail descriptors only apply to the naturals"),
    (lambda: ControlStructure("huge"), ControlError, "unknown control structure kind 'huge'"),
    (lambda: ControlStructure(MIN, [["a"]]), ControlError,
     "only generated structures take generators"),
    (lambda: generated_ctl(N, [[0]]), UnsupportedRepresentationError,
     "generated structures are only representable on finite carriers"),
    (lambda: generated_ctl(ABC, [["z"]]), ControlError, "generator element 'z' outside carrier"),
    (lambda: identity_map(min_ctl(ABC)).evaluate("z"), ControlError,
     "element 'z' outside source carrier"),
    (lambda: ControlledMap(max_ctl(N), max_ctl(N), ConstantAssignment(-1)), ControlError,
     "constant value -1 outside target carrier"),
    (lambda: ControlledMap(min_ctl(ABC), max_ctl(N), ShiftAssignment(1)),
     UnsupportedRepresentationError, "shift assignments map the naturals to the naturals"),
    (lambda: ControlledMap(max_ctl(N), max_ctl(N), 3), UnsupportedRepresentationError,
     "unknown assignment representation int"),
    (lambda: list(all_set_maps(N, ABC)), UnsupportedRepresentationError,
     "enumeration needs finite carriers"),
    (lambda: adjunction_check(N, min_ctl(ABC)), UnsupportedRepresentationError,
     "adjunction check needs finite carriers"),
], ids=["carrier kind", "repeated element", "naturals with elements", "descriptor kind",
        "element outside", "negative tail", "tail on finite", "structure kind",
        "generators on min", "generated on naturals", "generator outside", "evaluate outside",
        "constant outside", "shift from finite", "unknown assignment", "enumerate naturals",
        "adjunction on naturals"])
def test_refusals_name_their_fault(make, error, message):
    with pytest.raises(ControlError) as err:
        make()
    assert type(err.value) is error and str(err.value) == message


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


# ------------------------------------------------- checked values are immutable

TWO = min_ctl(finite_carrier([0, 1]))
SWAP = {0: 1, 1: 0}


@pytest.mark.parametrize("edit", [
    lambda t: t.__setitem__(1, "zzz"),
    lambda t: t.update({1: "zzz"}),
    lambda t: t.pop(0),
    lambda t: t.__delitem__(0),
    lambda t: t.__ior__({1: "zzz"}),
    lambda t: t.setdefault(2, "zzz"),
    lambda t: t.popitem(),
    lambda t: t.clear(),
    lambda t: t.__init__({1: "zzz"}),
], ids=["setitem", "update", "pop", "del", "ior", "setdefault", "popitem", "clear", "init"])
@pytest.mark.parametrize("made", ["checked", "composite"])
def test_a_checked_table_cannot_be_edited(edit, made):
    g = ControlledMap(TWO, TWO, TableAssignment(SWAP))
    if made == "composite":
        g = compose(g, ControlledMap(TWO, TWO, TableAssignment({0: 0, 1: 1})))
    with pytest.raises(TypeError, match="read-only"):
        edit(g.assignment.mapping)
    assert g.assignment.mapping == SWAP


def test_an_edited_table_cannot_leak_into_a_composite():
    # once a table could be edited after its check and composed unchecked
    g = ControlledMap(TWO, TWO, TableAssignment(SWAP))
    f = ControlledMap(TWO, TWO, TableAssignment({0: 0, 1: 1}))
    with pytest.raises(TypeError):
        g.assignment.mapping[1] = "zzz"
    with pytest.raises(TypeError):
        table = g.assignment.mapping
        table |= {1: "zzz"}
    assert compose(g, f).assignment.mapping == SWAP


def test_a_callers_dict_is_copied():
    given = dict(SWAP)
    g = ControlledMap(TWO, TWO, TableAssignment(given))
    given[1] = "zzz"
    del given[0]
    assert g.assignment.mapping == SWAP


@pytest.mark.parametrize("value, field, new", [
    (lambda: ControlledMap(TWO, TWO, TableAssignment(SWAP)), "assignment", TableAssignment({})),
    (lambda: ControlledMap(TWO, TWO, TableAssignment(SWAP)), "source", max_ctl(N)),
    (lambda: ShiftAssignment(1, {0: 5}), "offset", -3),
    (lambda: ShiftAssignment(1, {0: 5}), "patch", {0: -1}),
    (lambda: ConstantAssignment(3), "value", -1),
    (lambda: TableAssignment(SWAP), "mapping", {}),
], ids=["map-assignment", "map-source", "shift-offset", "shift-patch", "constant-value",
        "table-mapping"])
def test_fields_of_checked_values_cannot_be_assigned(value, field, new):
    with pytest.raises(AttributeError):
        setattr(value(), field, new)


def test_a_checked_shift_keeps_its_offset_and_patch():
    s = ControlledMap(max_ctl(N), max_ctl(N), ShiftAssignment(1, {0: 5}))
    with pytest.raises(AttributeError):
        s.assignment.offset = -3
    with pytest.raises(TypeError, match="read-only"):
        s.assignment.patch[0] = -1
    with pytest.raises(TypeError, match="read-only"):
        s.assignment.patch.__init__({3: 9})
    assert s.assignment.patch == {0: 5}
    assert [s.evaluate(n) for n in range(4)] == [5, 2, 3, 4]


def test_replace_runs_the_checks():
    g = ControlledMap(TWO, TWO, TableAssignment(SWAP))
    with pytest.raises(ControlError, match="value 'zzz' outside target carrier"):
        g._replace(assignment=TableAssignment({0: 1, 1: "zzz"}))
    with pytest.raises(ControlError, match=r"missing values for \[1\]"):
        g._replace(assignment=g.assignment._replace(mapping={0: 1}))
    assert g._replace(target=max_ctl(finite_carrier([0, 1]))).assignment == g.assignment


def test_checked_values_are_tuples():
    table = TableAssignment(SWAP)
    g = ControlledMap(TWO, TWO, table)
    assert table == (SWAP,) and g == (TWO, TWO, (SWAP,))
    source, target, assignment = g
    assert (source, target, assignment) == (TWO, TWO, table)
    assert repr(table) == "TableAssignment(mapping={0: 1, 1: 0})"
    assert repr(ShiftAssignment(2, {0: 7})) == "ShiftAssignment(offset=2, patch={0: 7})"


@pytest.mark.parametrize("roundtrip", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("g, table", [
    (ControlledMap(TWO, TWO, TableAssignment(SWAP)), lambda a: a.mapping),
    (ControlledMap(max_ctl(N), max_ctl(N), ShiftAssignment(1, {0: 5})), lambda a: a.patch),
], ids=["table", "shift"])
def test_checked_maps_round_trip_read_only(roundtrip, g, table):
    again = roundtrip(g)
    assert again == g and type(again) is ControlledMap
    assert table(again.assignment) == table(g.assignment)
    with pytest.raises(TypeError, match="read-only"):
        table(again.assignment)[0] = 0
