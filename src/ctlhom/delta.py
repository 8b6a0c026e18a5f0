"""Arithmetic of monotone maps between finite ordinals.

The ordinal of dimension n is the totally ordered set {0, 1, ..., n}.
Everything downstream (simplicial sets, normal forms, boundary operators)
reduces to composing these maps, so this module keeps them as plain value
tuples and provides the generator calculus: cofaces, codegeneracies, the
surjection-followed-by-injection factorization, and the canonical generator
words on either side of it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations_with_replacement


class DeltaError(ValueError):
    """Ill-formed ordinal map, out-of-range index, or mismatched composition."""


class MonotoneMap(namedtuple("MonotoneMap", "source_dim target_dim values")):
    """A weakly increasing map {0..source_dim} -> {0..target_dim}, stored
    pointwise, as a ``(source_dim, target_dim, values)`` tuple (equal to the
    plain one) that hashes and compares in C."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked by __new__

    def __new__(cls, source_dim: int, target_dim: int, values):
        values = tuple(values)
        if source_dim < 0 or target_dim < 0:
            raise DeltaError("ordinal dimension must be non-negative")
        if len(values) != source_dim + 1:
            raise DeltaError(f"expected {source_dim + 1} values, got {len(values)}")
        prev = 0
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool):
                raise DeltaError(f"non-integer value {v!r}")
            if not 0 <= v <= target_dim:
                raise DeltaError(f"value {v} outside target ordinal 0..{target_dim}")
            if v < prev:
                raise DeltaError(f"values {values} are not weakly increasing")
            prev = v
        return tuple.__new__(cls, (source_dim, target_dim, values))

    @property
    def is_injective(self) -> bool:
        return len(set(self.values)) == len(self.values)

    @property
    def is_surjective(self) -> bool:
        return len(set(self.values)) == self.target_dim + 1

    @property
    def is_identity(self) -> bool:
        return self.source_dim == self.target_dim and self.values == tuple(
            range(self.source_dim + 1)
        )

    def __repr__(self):
        return f"MonotoneMap({self.source_dim}->{self.target_dim}, {list(self.values)})"


def identity(n: int) -> MonotoneMap:
    return MonotoneMap(n, n, tuple(range(n + 1)))


def coface(n: int, i: int) -> MonotoneMap:
    """The injection n -> n+1 whose image misses i."""
    if not 0 <= i <= n + 1:
        raise DeltaError(f"coface index {i} outside 0..{n + 1}")
    return MonotoneMap(n, n + 1, tuple(v if v < i else v + 1 for v in range(n + 1)))


def codegeneracy(n: int, j: int) -> MonotoneMap:
    """The surjection n+1 -> n that hits j twice."""
    if not 0 <= j <= n:
        raise DeltaError(f"codegeneracy index {j} outside 0..{n}")
    return MonotoneMap(n + 1, n, tuple(v if v <= j else v - 1 for v in range(n + 2)))


def compose(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    """g after f."""
    if f.target_dim != g.source_dim:
        raise DeltaError(
            f"cannot compose: inner target {f.target_dim} != outer source {g.source_dim}"
        )
    return MonotoneMap(f.source_dim, g.target_dim, tuple(g.values[v] for v in f.values))


def epi_mono_factor(f: MonotoneMap) -> tuple[MonotoneMap, MonotoneMap]:
    """Factor f as (surjection, injection) with f == compose(injection, surjection).

    The factorization is through the ordinal spanned by the image of f; it is
    the unique such factorization, which the law suite checks by brute force.
    """
    image = sorted(set(f.values))
    mid = len(image) - 1
    rank = {v: k for k, v in enumerate(image)}
    epi = MonotoneMap(f.source_dim, mid, tuple(rank[v] for v in f.values))
    mono = MonotoneMap(mid, f.target_dim, tuple(image))
    return epi, mono


def codegeneracy_word(f: MonotoneMap) -> tuple[int, ...]:
    """Strictly increasing indices (j_1 < ... < j_t) with f the composite of
    the corresponding codegeneracies, outermost (last applied) first."""
    if not f.is_surjective:
        raise DeltaError("codegeneracy word requires a surjection")
    return tuple(j for j in range(f.source_dim) if f.values[j] == f.values[j + 1])


def coface_word(f: MonotoneMap) -> tuple[int, ...]:
    """Strictly decreasing indices (i_1 > ... > i_s) with f the composite of
    the corresponding cofaces, outermost (last applied) first."""
    if not f.is_injective:
        raise DeltaError("coface word requires an injection")
    image = set(f.values)
    return tuple(i for i in range(f.target_dim, -1, -1) if i not in image)


def from_codegeneracy_word(word, source_dim: int) -> MonotoneMap:
    """Rebuild the surjection source_dim -> source_dim - len(word) whose
    codegeneracy word is ``sorted(word)``; duplicate indices are rejected."""
    word = tuple(word)
    doubled = set(word)
    if len(doubled) != len(word):
        raise DeltaError(f"repeated codegeneracy index in {word}")
    if any(not 0 <= j <= source_dim - 1 for j in doubled):
        raise DeltaError(f"codegeneracy index outside 0..{source_dim - 1}")
    values = tuple(v - sum(1 for j in doubled if j < v) for v in range(source_dim + 1))
    return MonotoneMap(source_dim, source_dim - len(doubled), values)


def from_coface_word(word, source_dim: int) -> MonotoneMap:
    """Rebuild the injection source_dim -> source_dim + len(word) whose image
    misses exactly the indices in ``word``."""
    word = tuple(word)
    missing = set(word)
    if len(missing) != len(word):
        raise DeltaError(f"repeated coface index in {word}")
    target = source_dim + len(missing)
    if any(not 0 <= i <= target for i in missing):
        raise DeltaError(f"coface index outside 0..{target}")
    values = tuple(v for v in range(target + 1) if v not in missing)
    return MonotoneMap(source_dim, target, values)


def all_monotone_maps(n: int, m: int):
    """All weakly increasing maps n -> m, in lexicographic order."""
    for values in combinations_with_replacement(range(m + 1), n + 1):
        yield MonotoneMap(n, m, values)


def check_cosimplicial_identities(max_dim: int) -> list[str]:
    """Verify the five generator identities for all indices up to max_dim.

    Returns a list of human-readable violations (empty when everything holds).
    """
    if not isinstance(max_dim, int) or isinstance(max_dim, bool) or max_dim < 0:
        raise DeltaError(f"max_dim must be a non-negative integer, not {max_dim!r}")
    return [label for label, lhs, rhs in _cosimplicial_equations(max_dim) if lhs != rhs]


def _cosimplicial_equations(max_dim: int):
    """Every generator identity up to max_dim as (violation text, lhs, rhs)."""
    for n in range(max_dim + 1):
        # coface-coface: d^j d^i == d^i d^{j-1} for i < j
        for j in range(1, n + 3):
            for i in range(j):
                yield (
                    f"d^{j} d^{i} != d^{i} d^{j-1} at n={n}",
                    compose(coface(n + 1, j), coface(n, i)),
                    compose(coface(n + 1, i), coface(n, j - 1)),
                )
        # codegeneracy-codegeneracy: s^j s^i == s^i s^{j+1} for i <= j
        for j in range(n + 1):
            for i in range(j + 1):
                yield (
                    f"s^{j} s^{i} != s^{i} s^{j+1} at n={n}",
                    compose(codegeneracy(n, j), codegeneracy(n + 1, i)),
                    compose(codegeneracy(n, i), codegeneracy(n + 1, j + 1)),
                )
        # mixed: s^j d^i == d^i s^{j-1} for i < j
        for j in range(1, n + 1):
            for i in range(j):
                yield (
                    f"s^{j} d^{i} != d^{i} s^{j-1} at n={n}",
                    compose(codegeneracy(n, j), coface(n, i)),
                    compose(coface(n - 1, i), codegeneracy(n - 1, j - 1)),
                )
        # mixed: s^j d^j == id == s^j d^{j+1}
        for j in range(n + 1):
            yield (
                f"s^{j} d^{j} != id at n={n}",
                compose(codegeneracy(n, j), coface(n, j)),
                identity(n),
            )
            yield (
                f"s^{j} d^{j+1} != id at n={n}",
                compose(codegeneracy(n, j), coface(n, j + 1)),
                identity(n),
            )
        # mixed: s^j d^i == d^{i-1} s^j for i > j + 1
        for j in range(n):
            for i in range(j + 2, n + 2):
                yield (
                    f"s^{j} d^{i} != d^{i-1} s^{j} at n={n}",
                    compose(codegeneracy(n, j), coface(n, i)),
                    compose(coface(n - 1, i - 1), codegeneracy(n - 1, j)),
                )
