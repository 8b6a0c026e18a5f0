"""Exhaustive finite-model checks for the categorical claims.

Each law enumerates every instance inside a small size bound and reports a
counterexample if one exists.  The bounds are chosen so the whole suite
runs in well under a minute; the point is not statistical confidence but
exhaustiveness below the bound.
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


def _subset_families(size: int):
    """Every family of subsets of {0..size-1}: the candidate generator sets."""
    elements = tuple(range(size))
    subsets = list(
        chain.from_iterable(combinations(elements, k) for k in range(size + 1))
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
    cases = 0
    for size in range(max_carrier + 1):
        carrier = finite_carrier(range(size))
        for family in _subset_families(size):
            cases += 1
            report = validate_structure(generated_ctl(carrier, family))
            if not report.ok:
                return LawResult(
                    "generated-structure-axioms", False, cases,
                    counterexample=(
                        f"carrier size {size}, generators {family}: "
                        + "; ".join(report.violations)
                    ),
                )
    return LawResult(
        "generated-structure-axioms", True, cases,
        note=f"all generator families on carriers of size <= {max_carrier}",
    )


def category_identity(max_carrier: int = 3) -> LawResult:
    """Composing with an identity map changes nothing."""
    cases = 0
    for a, b in product(range(max_carrier + 1), repeat=2):
        X = min_ctl(finite_carrier(range(a)))
        Y = min_ctl(finite_carrier(range(b)))
        for table in all_set_maps(X.carrier, Y.carrier):
            f = ControlledMap(X, Y, table)
            cases += 1
            left = compose(f, identity_map(X))
            right = compose(identity_map(Y), f)
            if left.assignment != f.assignment or right.assignment != f.assignment:
                return LawResult(
                    "category-identity", False, cases,
                    counterexample=f"{table.mapping} between sizes ({a}, {b})",
                )
    return LawResult("category-identity", True, cases)


def category_associativity(max_carrier: int = 3) -> LawResult:
    """(h . g) . f == h . (g . f) for all set maps below the bound.

    Associativity depends only on the underlying assignments, never on the
    control structures, so each carrier tuple is checked once with the
    minimal structure; structure choice is exercised by the hom-set law.
    Every inner composite h . g and g . f is built once per carrier tuple,
    and each triple then composes both sides through ``compose``.
    """
    cases = 0
    tuples = list(product(range(min(max_carrier, 2) + 1), repeat=4))
    if max_carrier >= 3:
        tuples.append((3, 3, 3, 3))
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
                    cases += 1
                    left = compose(hg, f)
                    right = compose(h, gf)
                    if left.assignment != right.assignment:
                        return LawResult(
                            "category-associativity", False, cases,
                            counterexample=(
                                f"sizes ({a},{b},{c},{d}): f={f.assignment.mapping}, "
                                f"g={g.assignment.mapping}, h={h.assignment.mapping}"
                            ),
                        )
    return LawResult("category-associativity", True, cases)


def homset_structure_independence(max_carrier: int = 2) -> LawResult:
    """Between finite carriers every set map is controlled, whatever the
    structures: the hom-sets agree across all presentations."""
    cases = 0
    for a, b in product(range(max_carrier + 1), repeat=2):
        source_structures = list(_all_structures(a))
        target_structures = list(_all_structures(b))
        tables = list(all_set_maps(finite_carrier(range(a)), finite_carrier(range(b))))
        for X in source_structures:
            for Y in target_structures:
                valid = []
                for table in tables:
                    cases += 1
                    verdict = validate_map(ControlledMap(X, Y, table))
                    valid.append(verdict.ok)
                if not all(valid):
                    bad = tables[valid.index(False)]
                    return LawResult(
                        "homset-structure-independence", False, cases,
                        counterexample=(
                            f"{bad.mapping} rejected between {X!r} and {Y!r}"
                        ),
                    )
    return LawResult(
        "homset-structure-independence", True, cases,
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
    cases = 0
    for f, g in product(endos, repeat=2):
        cases += 1
        gf = compose(g, f)
        if not isinstance(gf.assignment, (ShiftAssignment, ConstantAssignment)):
            return LawResult(
                "assignment-catalogue-closure", False, cases,
                counterexample=f"{g.assignment} . {f.assignment} left the catalogue",
            )
        for x in sample_points:
            if gf.evaluate(x) != g.evaluate(f.evaluate(x)):
                return LawResult(
                    "assignment-catalogue-closure", False, cases,
                    counterexample=(
                        f"{g.assignment} . {f.assignment} at {x}: "
                        f"{gf.evaluate(x)} != {g.evaluate(f.evaluate(x))}"
                    ),
                )
    for f, g, h in product(endos, repeat=3):
        cases += 1
        left = compose(compose(h, g), f)
        right = compose(h, compose(g, f))
        if left.assignment != right.assignment:
            return LawResult(
                "assignment-catalogue-closure", False, cases,
                counterexample=(
                    f"associativity: {h.assignment}, {g.assignment}, {f.assignment}"
                ),
            )
    # tables out of a finite carrier compose with the symbolic endos
    F = min_ctl(finite_carrier(range(3)))
    tables = [
        ControlledMap(F, N, TableAssignment(dict(zip(range(3), values))))
        for values in ((0, 7, 3), (5, 5, 5), (0, 1, 2))
    ]
    for t, g, h in product(tables, endos, endos):
        cases += 1
        gt = compose(g, t)
        if not isinstance(gt.assignment, TableAssignment):
            return LawResult(
                "assignment-catalogue-closure", False, cases,
                counterexample=f"{g.assignment} . table left the catalogue",
            )
        left = compose(compose(h, g), t)
        right = compose(h, compose(g, t))
        if left.assignment != right.assignment:
            return LawResult(
                "assignment-catalogue-closure", False, cases,
                counterexample=f"table associativity: {h.assignment}, {g.assignment}, {t.assignment.mapping}",
            )
    return LawResult("assignment-catalogue-closure", True, cases)


def min_forget_adjunction(max_carrier: int = 3) -> LawResult:
    """Hom(min(S), X) bijects with set maps S -> forget(X), exhaustively.

    Checked against every structure presentation on carriers up to size 2
    and spot presentations at size 3 (on a finite carrier every
    presentation is the full power set, so the hom-sets cannot depend on
    which one is taken).
    """
    cases = 0
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
            cases += 1
            report = adjunction_check(S, X)
            if not report.ok:
                return LawResult(
                    "min-forget-adjunction", False, cases,
                    counterexample=(
                        f"|S|={s_size}, X={X!r}: {report.failures[:2]}"
                    ),
                )
    return LawResult("min-forget-adjunction", True, cases)


def cosimplicial_identities(max_dim: int = 6) -> LawResult:
    """The generator identities of the cosimplicial category; every
    identity ``delta.check_cosimplicial_identities`` checks is one case."""
    cases = 0
    first = None
    for label, lhs, rhs in delta._cosimplicial_equations(max_dim):
        cases += 1
        if first is None and lhs != rhs:
            first = label
    if first is not None:
        return LawResult("cosimplicial-identities", False, cases, counterexample=first)
    return LawResult("cosimplicial-identities", True, cases)


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


def epi_mono_factorization(max_dim: int = 4) -> LawResult:
    """Every ordinal map factors as a surjection followed by an injection in
    exactly one way, and it is the computed factorization.

    The brute-force list of all factorizations is built once per (n, m);
    ``delta.epi_mono_factor`` is still called on every map.
    """
    cases = 0
    for n, m in product(range(max_dim + 1), repeat=2):
        factorizations = _factorization_table(n, m)
        for f in delta.all_monotone_maps(n, m):
            cases += 1
            epi, mono = delta.epi_mono_factor(f)
            if delta.compose(mono, epi) != f:
                problem = "does not compose back"
            elif not epi.is_surjective:
                problem = f"has a first factor {epi!r} that is not surjective"
            elif not mono.is_injective:
                problem = f"has a second factor {mono!r} that is not injective"
            else:
                problem = None
            if problem is not None:
                return LawResult(
                    "epi-mono-factorization", False, cases,
                    counterexample=f"factorization of {f!r} {problem}",
                )
            found = factorizations.get(f, [])
            for e, mo in found:
                if (e, mo) != (epi, mono):
                    return LawResult(
                        "epi-mono-factorization", False, cases,
                        counterexample=f"{f!r} has a second factorization {e!r}, {mo!r}",
                    )
            if len(found) != 1:
                return LawResult(
                    "epi-mono-factorization", False, cases,
                    counterexample=f"{f!r} has {len(found)} factorizations",
                )
    return LawResult("epi-mono-factorization", True, cases)


_ADJACENCY_SPACES = ("point", "circle", "delta(2)", "sphere(1)", "rp2")


def adjacency_vertex_reduction(max_dim: int = 3) -> LawResult:
    """Sharing any common simplex under ordinal-map actions is the same as
    sharing a 0-simplex.

    For each pair of simplices the full result sets {X(f)(x)} over all
    ordinal maps into dimensions <= max_dim are intersected and compared
    with ``sset.adjacent``, the vertex-set intersection.
    """
    cases = 0
    maps_into = {
        n: [f for k in range(max_dim + 1) for f in delta.all_monotone_maps(k, n)]
        for n in range(max_dim + 1)
    }
    for name in _ADJACENCY_SPACES:
        X = corpus.build(name)
        simplices = []
        for n in range(max_dim + 1):
            simplices.extend(all_simplices(X, n))
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
            cases += 1
            by_arrows = not hit_x.isdisjoint(hit_y)
            by_vertices = adjacent(X, x, y)
            if by_arrows != by_vertices:
                return LawResult(
                    "adjacency-vertex-reduction", False, cases,
                    counterexample=(
                        f"{name}: {x!r} vs {y!r}: arrows say {by_arrows}, "
                        f"vertices say {by_vertices}"
                    ),
                )
    return LawResult(
        "adjacency-vertex-reduction", True, cases,
        note=f"spaces: {', '.join(_ADJACENCY_SPACES)}",
    )


def run_all(max_carrier: int = 3) -> list[LawResult]:
    return [
        generated_structure_axioms(max_carrier),
        category_identity(min(max_carrier, 3)),
        category_associativity(max_carrier),
        homset_structure_independence(min(max_carrier, 2)),
        assignment_catalogue_closure(),
        min_forget_adjunction(max_carrier),
        cosimplicial_identities(),
        epi_mono_factorization(),
        adjacency_vertex_reduction(),
    ]
