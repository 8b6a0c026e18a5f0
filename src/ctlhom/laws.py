"""Exhaustive finite-model checks for the categorical claims.

Each law enumerates every instance inside a small size bound and yields one
verdict per instance: None, or the counterexample text.  One runner, ``_law``,
counts them and stops at the first counterexample.  The bounds are chosen so
the whole suite runs in well under a minute; the point is not statistical
confidence but exhaustiveness below the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product

from . import delta
from .ctlset import (
    ControlledMap,
    ShiftAssignment,
    ConstantAssignment,
    TableAssignment,
    adjunction_check,
    all_set_maps,
    compose,
    finite_carrier,
    generated_ctl,
    identity_map,
    max_ctl,
    min_ctl,
    naturals,
    validate_map,
    validate_structure,
)
from .sset import adjacent, all_simplices, apply_ordinal_map
from . import corpus


@dataclass
class LawResult:
    name: str
    ok: bool
    cases: int
    counterexample: str | None = None
    note: str = ""

    def __repr__(self):
        status = "ok" if self.ok else "FAILED"
        return f"LawResult({self.name}: {status}, {self.cases} cases)"


MAX_CARRIER = 3  # the families of subsets of a carrier of size 5 number 2^32


def _check_bound(max_carrier):
    """The carrier bound, refused outside 0..MAX_CARRIER."""
    if type(max_carrier) is not int or not 0 <= max_carrier <= MAX_CARRIER:
        raise ValueError(f"max_carrier must be an integer in 0..{MAX_CARRIER}, not {max_carrier!r}")


def _law(name: str, cases, note: str = "") -> LawResult:
    """Run one law over ``cases``, one verdict per case: None where the law holds,
    else the counterexample text.  Counts the cases; stops at the first failure."""
    count = 0
    for count, counterexample in enumerate(cases, 1):
        if counterexample is not None:
            return LawResult(name, False, count, counterexample)
    return LawResult(name, True, count, note=note)


def _subset_families(size: int):
    """Every family of subsets of {0..size-1}: the candidate generator sets."""
    subsets = list(
        chain.from_iterable(combinations(range(size), k) for k in range(size + 1))
    )
    for mask in range(1 << len(subsets)):
        yield [subsets[i] for i in range(len(subsets)) if mask >> i & 1]


def _all_structures(size: int):
    carrier = finite_carrier(range(size))
    yield min_ctl(carrier)
    yield max_ctl(carrier)
    for family in _subset_families(size):
        yield generated_ctl(carrier, family)


def generated_structure_axioms(max_carrier: int = 3) -> LawResult:
    """Every generated presentation on a finite carrier satisfies the three
    control axioms (finite subsets controlled; closed under subsets; closed
    under finite unions)."""
    _check_bound(max_carrier)
    def cases():
        for size in range(max_carrier + 1):
            carrier = finite_carrier(range(size))
            for family in _subset_families(size):
                report = validate_structure(generated_ctl(carrier, family))
                yield None if report.ok else (
                    f"carrier size {size}, generators {family}: "
                    + "; ".join(report.violations)
                )
    return _law(
        "generated-structure-axioms", cases(),
        note=f"all generator families on carriers of size <= {max_carrier}",
    )


def category_identity(max_carrier: int = 3) -> LawResult:
    """Composing with an identity map changes nothing."""
    _check_bound(max_carrier)
    def cases():
        for a, b in product(range(max_carrier + 1), repeat=2):
            X = min_ctl(finite_carrier(range(a)))
            Y = min_ctl(finite_carrier(range(b)))
            for table in all_set_maps(X.carrier, Y.carrier):
                f = ControlledMap(X, Y, table)
                left = compose(f, identity_map(X))
                right = compose(identity_map(Y), f)
                yield None if left.assignment == f.assignment == right.assignment else (
                    f"{table.mapping} between sizes ({a}, {b})")
    return _law("category-identity", cases())


def category_associativity(max_carrier: int = 3) -> LawResult:
    """(h . g) . f == h . (g . f) for all set maps below the bound.

    Associativity depends only on the underlying assignments, never on the
    control structures, so each carrier tuple is checked once with the
    minimal structure; structure choice is exercised by the hom-set law.
    Every inner composite h . g and g . f is built once per carrier tuple,
    and each triple then composes both sides through ``compose``.
    """
    _check_bound(max_carrier)
    tuples = list(product(range(min(max_carrier, 2) + 1), repeat=4))
    if max_carrier >= 3:
        tuples.append((3, 3, 3, 3))

    def cases():
        for a, b, c, d in tuples:
            A = min_ctl(finite_carrier(range(a)))
            B = min_ctl(finite_carrier(range(b)))
            C = min_ctl(finite_carrier(range(c)))
            D = min_ctl(finite_carrier(range(d)))
            fs = [ControlledMap(A, B, t) for t in all_set_maps(A.carrier, B.carrier)]
            gs = [ControlledMap(B, C, t) for t in all_set_maps(B.carrier, C.carrier)]
            hs = [ControlledMap(C, D, t) for t in all_set_maps(C.carrier, D.carrier)]
            hgs = [[compose(h, g) for h in hs] for g in gs]
            gfs = [[compose(g, f) for g in gs] for f in fs]
            for f, gf_row in zip(fs, gfs):
                for g, gf, hg_row in zip(gs, gf_row, hgs):
                    for h, hg in zip(hs, hg_row):
                        left = compose(hg, f)
                        right = compose(h, gf)
                        yield None if left.assignment == right.assignment else (
                            f"sizes ({a},{b},{c},{d}): f={f.assignment.mapping}, "
                            f"g={g.assignment.mapping}, h={h.assignment.mapping}"
                        )
    return _law("category-associativity", cases())


def homset_structure_independence(max_carrier: int = 2) -> LawResult:
    """Between finite carriers every set map is controlled, whatever the
    structures: the hom-sets agree across all presentations."""
    _check_bound(max_carrier)
    def cases():
        for a, b in product(range(max_carrier + 1), repeat=2):
            tables = all_set_maps(finite_carrier(range(a)), finite_carrier(range(b)))
            # product lists the structures and the tables once, before the first case
            for X, Y, table in product(_all_structures(a), _all_structures(b), tables):
                verdict = validate_map(ControlledMap(X, Y, table))
                yield None if verdict.ok else (
                    f"{table.mapping} rejected between {X!r} and {Y!r}"
                )
    return _law(
        "homset-structure-independence", cases(),
        note=f"all structure pairs on carriers of size <= {max_carrier}",
    )


def assignment_catalogue_closure() -> LawResult:
    """The symbolic assignments over the naturals compose inside the
    catalogue, agree with pointwise evaluation, and associate."""
    N = max_ctl(naturals())
    endos = [
        ControlledMap(N, N, a)
        for a in (
            ShiftAssignment(0, {}),
            ShiftAssignment(1, {}),
            ShiftAssignment(2, {0: 5}),
            ShiftAssignment(1, {2: 0, 5: 5}),
            ConstantAssignment(0),
            ConstantAssignment(7),
        )
    ]
    sample_points = range(15)

    def cases():
        for f, g in product(endos, repeat=2):
            gf = compose(g, f)
            if not isinstance(gf.assignment, (ShiftAssignment, ConstantAssignment)):
                yield f"{g.assignment} . {f.assignment} left the catalogue"
                continue
            yield next((
                f"{g.assignment} . {f.assignment} at {x}: "
                f"{gf.evaluate(x)} != {g.evaluate(f.evaluate(x))}"
                for x in sample_points if gf.evaluate(x) != g.evaluate(f.evaluate(x))
            ), None)
        for f, g, h in product(endos, repeat=3):
            left = compose(compose(h, g), f)
            right = compose(h, compose(g, f))
            yield None if left.assignment == right.assignment else (
                f"associativity: {h.assignment}, {g.assignment}, {f.assignment}"
            )
        # tables out of a finite carrier compose with the symbolic endos
        F = min_ctl(finite_carrier(range(3)))
        tables = [
            ControlledMap(F, N, TableAssignment(dict(zip(range(3), values))))
            for values in ((0, 7, 3), (5, 5, 5), (0, 1, 2))
        ]
        for t, g, h in product(tables, endos, endos):
            gt = compose(g, t)
            if not isinstance(gt.assignment, TableAssignment):
                yield f"{g.assignment} . table left the catalogue"
                continue
            left = compose(compose(h, g), t)
            right = compose(h, compose(g, t))
            yield None if left.assignment == right.assignment else (
                f"table associativity: {h.assignment}, {g.assignment}, {t.assignment.mapping}"
            )
    return _law("assignment-catalogue-closure", cases())


def min_forget_adjunction(max_carrier: int = 3) -> LawResult:
    """Hom(min(S), X) bijects with set maps S -> forget(X), exhaustively.

    Checked against every structure presentation on carriers up to size 2
    and spot presentations at size 3 (on a finite carrier every
    presentation is the full power set, so the hom-sets cannot depend on
    which one is taken).
    """
    _check_bound(max_carrier)
    def cases():
        for s_size in range(max_carrier + 1):
            S = finite_carrier(range(s_size))
            targets = []
            for x_size in range(3):
                targets.extend(_all_structures(x_size))
            carrier3 = finite_carrier(range(3))
            targets.extend([
                min_ctl(carrier3),
                max_ctl(carrier3),
                generated_ctl(carrier3, [(0,), (1,), (2,)]),
                generated_ctl(carrier3, [()]),
            ])
            for X in targets:
                report = adjunction_check(S, X)
                yield None if report.ok else (
                    f"|S|={s_size}, X={X!r}: {report.failures[:2]}"
                )
    return _law("min-forget-adjunction", cases())


def cosimplicial_identities() -> LawResult:
    """The generator identities of the cosimplicial category up to dimension
    6; every identity ``delta.check_cosimplicial_identities`` checks is one case."""
    return _law("cosimplicial-identities", (
        None if lhs == rhs else label
        for label, lhs, rhs in delta._cosimplicial_equations(6)
    ))


def _factorization_table(n: int, m: int) -> dict:
    """Every (surjection e, injection mo) through some k, keyed by the
    composite mo . e, in the order k, e, mo ascending."""
    table = {}
    for k in range(min(n, m) + 1):
        epis = [e for e in delta.all_monotone_maps(n, k) if e.is_surjective]
        monos = [mo for mo in delta.all_monotone_maps(k, m) if mo.is_injective]
        for e in epis:
            for mo in monos:
                table.setdefault(delta.compose(mo, e), []).append((e, mo))
    return table


def epi_mono_factorization() -> LawResult:
    """Every ordinal map between dimensions <= 4 factors as a surjection
    followed by an injection in exactly one way, and it is the computed
    factorization.

    The brute-force list of all factorizations is built once per (n, m);
    ``delta.epi_mono_factor`` is still called on every map.
    """
    def cases():
        for n, m in product(range(5), repeat=2):
            factorizations = _factorization_table(n, m)
            for f in delta.all_monotone_maps(n, m):
                epi, mono = delta.epi_mono_factor(f)
                found = factorizations.get(f, [])
                others = [(e, mo) for e, mo in found if (e, mo) != (epi, mono)]
                if delta.compose(mono, epi) != f:
                    yield f"factorization of {f!r} does not compose back"
                elif not epi.is_surjective:
                    yield f"factorization of {f!r} has a first factor {epi!r} that is not surjective"
                elif not mono.is_injective:
                    yield f"factorization of {f!r} has a second factor {mono!r} that is not injective"
                elif others:
                    yield f"{f!r} has a second factorization {others[0][0]!r}, {others[0][1]!r}"
                elif len(found) != 1:
                    yield f"{f!r} has {len(found)} factorizations"
                else:
                    yield None
    return _law("epi-mono-factorization", cases())


_ADJACENCY_SPACES = ("point", "circle", "delta(2)", "sphere(1)", "rp2")


def adjacency_vertex_reduction() -> LawResult:
    """Sharing any common simplex under ordinal-map actions is the same as
    sharing a 0-simplex.

    For each pair of simplices of dimension <= 3 the full result sets
    {X(f)(x)} over all ordinal maps into dimensions <= 3 are intersected and
    compared with ``sset.adjacent``, the vertex-set intersection.
    """
    dims = range(4)
    maps_into = {n: [f for k in dims for f in delta.all_monotone_maps(k, n)] for n in dims}

    def cases():
        for name in _ADJACENCY_SPACES:
            X = corpus.build(name)
            simplices = [x for n in dims for x in all_simplices(X, n)]
            # each result simplex is numbered once, so the pairwise
            # intersections compare small integers rather than simplices
            numbers = {}
            results = [
                frozenset(
                    numbers.setdefault(apply_ordinal_map(X, x, f), len(numbers))
                    for f in maps_into[x.dim]
                )
                for x in simplices
            ]
            for (x, hit_x), (y, hit_y) in product(zip(simplices, results), repeat=2):
                by_arrows = not hit_x.isdisjoint(hit_y)
                by_vertices = adjacent(X, x, y)
                yield None if by_arrows == by_vertices else (
                    f"{name}: {x!r} vs {y!r}: arrows say {by_arrows}, "
                    f"vertices say {by_vertices}"
                )
    return _law(
        "adjacency-vertex-reduction", cases(),
        note=f"spaces: {', '.join(_ADJACENCY_SPACES)}",
    )


def run_all(max_carrier: int = MAX_CARRIER) -> list[LawResult]:
    _check_bound(max_carrier)
    return [
        generated_structure_axioms(max_carrier),
        category_identity(max_carrier),
        category_associativity(max_carrier),
        homset_structure_independence(min(max_carrier, 2)),
        assignment_catalogue_closure(),
        min_forget_adjunction(max_carrier),
        cosimplicial_identities(),
        epi_mono_factorization(),
        adjacency_vertex_reduction(),
    ]
