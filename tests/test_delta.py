import pickle
import re

import pytest
from hypothesis import given, strategies as st

from ctlhom.delta import (
    DeltaError,
    MonotoneMap,
    all_monotone_maps,
    check_cosimplicial_identities,
    codegeneracy,
    codegeneracy_word,
    coface,
    coface_word,
    compose,
    epi_mono_factor,
    from_codegeneracy_word,
    from_coface_word,
    identity,
)


@st.composite
def monotone_maps(draw, max_dim=4):
    n = draw(st.integers(0, max_dim))
    m = draw(st.integers(0, max_dim))
    values = sorted(draw(st.lists(st.integers(0, m), min_size=n + 1, max_size=n + 1)))
    return MonotoneMap(n, m, tuple(values))


def test_identity_values():
    f = identity(3)
    assert f.values == (0, 1, 2, 3)
    assert f.is_identity and f.is_injective and f.is_surjective


def test_values_must_be_monotone():
    with pytest.raises(DeltaError):
        MonotoneMap(1, 1, (1, 0))
    with pytest.raises(DeltaError):
        MonotoneMap(1, 1, (0, 2))
    with pytest.raises(DeltaError):
        MonotoneMap(2, 1, (0, 1))  # wrong length


def test_coface_skips_its_index():
    d1 = coface(1, 1)  # [1] -> [2], missing 1
    assert d1.values == (0, 2)
    assert d1.is_injective and not d1.is_surjective


def test_codegeneracy_repeats_its_index():
    s0 = codegeneracy(1, 0)
    assert s0.values == (0, 0, 1)
    assert s0.is_surjective and not s0.is_injective


def test_compose_shapes_must_match():
    with pytest.raises(DeltaError):
        compose(coface(2, 0), coface(3, 0))


def test_cosimplicial_identities_exhaustive():
    assert check_cosimplicial_identities(5) == []


def test_all_monotone_maps_count():
    # weakly increasing (n+1)-tuples valued in {0..m}: C(n+m+1, m)
    assert len(list(all_monotone_maps(1, 2))) == 6
    assert len(list(all_monotone_maps(2, 2))) == 10
    assert len(list(all_monotone_maps(0, 3))) == 4


@given(monotone_maps())
def test_epi_mono_factorization_recomposes(f):
    epi, mono = epi_mono_factor(f)
    assert epi.is_surjective
    assert mono.is_injective
    assert compose(mono, epi) == f


@given(monotone_maps())
def test_word_round_trips(f):
    """Surjections are words in codegeneracies, injections in cofaces."""
    epi, mono = epi_mono_factor(f)
    sword = codegeneracy_word(epi)
    assert list(sword) == sorted(sword)
    assert from_codegeneracy_word(sword, epi.source_dim) == epi
    dword = coface_word(mono)
    assert list(dword) == sorted(dword, reverse=True)
    assert from_coface_word(dword, mono.source_dim) == mono


@st.composite
def composable_triples(draw, max_dim=3):
    dims = [draw(st.integers(0, max_dim)) for _ in range(4)]
    maps = []
    for n, m in zip(dims, dims[1:]):
        values = sorted(draw(st.lists(st.integers(0, m), min_size=n + 1,
                                      max_size=n + 1)))
        maps.append(MonotoneMap(n, m, tuple(values)))
    return maps


@given(composable_triples())
def test_compose_is_associative(triple):
    f, g, h = triple
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


@given(monotone_maps())
def test_identity_is_neutral(f):
    assert compose(f, identity(f.source_dim)) == f
    assert compose(identity(f.target_dim), f) == f


def test_word_builders_accept_one_shot_iterables():
    assert from_codegeneracy_word(iter((2, 0)), 3) == from_codegeneracy_word((0, 2), 3)
    assert from_coface_word(iter((3, 1)), 1) == from_coface_word((1, 3), 1)
    with pytest.raises(DeltaError):
        from_codegeneracy_word(iter((1, 1)), 3)


def test_monotone_map_is_its_checked_value_tuple():
    f = MonotoneMap(2, 3, [0, 1, 3])
    assert f == (2, 3, (0, 1, 3)) and isinstance(f, tuple)
    assert hash(f) == hash((f.source_dim, f.target_dim, f.values))
    assert repr(f) == "MonotoneMap(2->3, [0, 1, 3])"
    assert (f.is_injective, f.is_surjective, f.is_identity) == (True, False, False)
    assert f._replace(target_dim=4) == MonotoneMap(2, 4, (0, 1, 3))
    assert pickle.loads(pickle.dumps(f)) == f
    with pytest.raises(AttributeError):
        f.values = (0, 0, 0)
    with pytest.raises(AttributeError):
        f.extra = 1


@pytest.mark.parametrize("fields, message", [
    ((-1, 0, ()), "ordinal dimension must be non-negative"),
    ((0, -1, (0,)), "ordinal dimension must be non-negative"),
    ((1, 1, (0,)), "expected 2 values, got 1"),
    ((1, 1, (0, 1.0)), "non-integer value 1.0"),
    ((1, 1, (0, True)), "non-integer value True"),
    ((1, 1, (0, 2)), "value 2 outside target ordinal 0..1"),
    ((1, 1, (-1, 0)), "value -1 outside target ordinal 0..1"),
    ((1, 1, [1, 0]), "values (1, 0) are not weakly increasing"),
])
def test_every_constructor_of_a_monotone_map_checks_it(fields, message):
    replaced = dict(zip(MonotoneMap._fields, fields))
    for build in (lambda: MonotoneMap(*fields), lambda: MonotoneMap._make(fields),
                  lambda: identity(1)._replace(**replaced)):
        with pytest.raises(DeltaError, match=f"^{re.escape(message)}$"):
            build()


@pytest.mark.parametrize("make, message", [
    (lambda: coface(1, 3), "coface index 3 outside 0..2"),
    (lambda: codegeneracy(1, 2), "codegeneracy index 2 outside 0..1"),
    (lambda: codegeneracy_word(coface(0, 0)), "codegeneracy word requires a surjection"),
    (lambda: coface_word(codegeneracy(0, 0)), "coface word requires an injection"),
    (lambda: from_codegeneracy_word((2,), 2), "codegeneracy index outside 0..1"),
    (lambda: from_coface_word((1, 1), 1), "repeated coface index in (1, 1)"),
    (lambda: from_coface_word((5,), 1), "coface index outside 0..2"),
    (lambda: check_cosimplicial_identities(-1),
     "max_dim must be a non-negative integer, not -1"),
    (lambda: check_cosimplicial_identities(True),
     "max_dim must be a non-negative integer, not True"),
    (lambda: check_cosimplicial_identities(2.0),
     "max_dim must be a non-negative integer, not 2.0"),
    (lambda: check_cosimplicial_identities("3"),
     "max_dim must be a non-negative integer, not '3'"),
], ids=["coface index", "codegeneracy index", "codegeneracy word of an injection",
        "coface word of a surjection", "codegeneracy word index", "repeated coface index",
        "coface word index", "negative identity bound", "bool identity bound",
        "float identity bound", "str identity bound"])
def test_operators_and_words_refuse_what_is_out_of_range(make, message):
    with pytest.raises(DeltaError) as err:
        make()
    assert type(err.value) is DeltaError and str(err.value) == message
