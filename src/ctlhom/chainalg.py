"""Exact chain-level algebra: boundary matrices, homology presentations,
and the four (co)homology theories of finite complexes and exhaustions.

All computation happens over the integers via Smith normal form; rational
and finite-cyclic coefficients are derived afterwards from the integral
answer in adjacent degrees, never by redoing linear algebra over a field.

For an exhaustion the four theories are limits or colimits over the stage
complexes:

* ordinary homology       — colimit along inclusions,
* Borel–Moore homology    — limit along projections of the stage-relative
                            complexes (chains modulo the frontier),
* ordinary cohomology     — limit along restrictions (duals of inclusions),
* compact-support         — colimit along extensions by zero (duals of the
  cohomology                 projections).

Stabilization is certified by watching transition maps become isomorphisms
for a window of consecutive stages; a system that keeps moving raises
NonStabilizationError with its history attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .snf import IntMatrix, MatrixError, smith_normal_form
from .sset import (
    Cell,
    FiniteSimplicialSet,
    SimplicialError,
    SimplicialMap,
    Simplex,
    all_simplices,
    apply_ordinal_map,
    is_locally_finite,
)
from . import delta
from .ctlset import ControlError


class CoefficientError(ValueError):
    pass


class NonStabilizationError(RuntimeError):
    """A limit/colimit system failed to settle within the probed depth."""

    def __init__(self, message, theory=None, degree=None, history=None):
        super().__init__(message)
        self.theory = theory
        self.degree = degree
        self.history = history or []


# --------------------------------------------------------------------------
# coefficients

@dataclass(frozen=True)
class Coefficients:
    """Coefficient ring: the integers, a finite cyclic ring, or the
    rationals.  Parsed from the CLI spellings z, z/M, q."""

    kind: str  # "z" | "zmod" | "q"
    modulus: int | None = None

    def __post_init__(self):
        if self.kind not in ("z", "zmod", "q"):
            raise CoefficientError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "zmod":
            if self.modulus is None or self.modulus < 2:
                raise CoefficientError("cyclic coefficients need a modulus >= 2")
        elif self.modulus is not None:
            raise CoefficientError("only z/M takes a modulus")

    @property
    def label(self) -> str:
        if self.kind == "z":
            return "Z"
        if self.kind == "q":
            return "Q"
        return f"Z/{self.modulus}"

    def __repr__(self):
        return f"Coefficients({self.label})"


INTEGER = Coefficients("z")
RATIONAL = Coefficients("q")


def parse_coefficients(text: str) -> Coefficients:
    t = text.strip().lower()
    if t == "z":
        return INTEGER
    if t == "q":
        return RATIONAL
    if t.startswith("z/"):
        tail = t[2:]
        try:
            # isdigit also passes what int() cannot read: '²', or more
            # digits than int() converts
            modulus = int(tail) if tail.isdigit() else None
        except ValueError:
            modulus = None
        if modulus is None:
            raise CoefficientError(f"bad modulus in {text!r}")
        return Coefficients("zmod", modulus)
    raise CoefficientError(f"cannot parse coefficients {text!r} (use z, z/M, or q)")


# --------------------------------------------------------------------------
# finitely generated abelian groups

@dataclass(frozen=True)
class AbelianGroup:
    """Invariant-factor form: free rank plus a divisibility chain of torsion
    orders (each >= 2, each dividing the next).

    Under z/M or q coefficients the same shape describes a module: free_rank
    counts full-ring summands and torsion the proper cyclic parts.
    """

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        torsion = tuple(int(t) for t in self.torsion)
        object.__setattr__(self, "torsion", torsion)
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for t in torsion:
            if t < 2:
                raise ValueError(f"torsion order {t} < 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {torsion} is not a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __repr__(self):
        return f"AbelianGroup({render_group(self, INTEGER)})"


TRIVIAL_GROUP = AbelianGroup(0)


def render_group(g: AbelianGroup, coeff: Coefficients = INTEGER) -> str:
    if g.is_trivial:
        return "0"
    if coeff.kind == "z":
        free_symbol = "Z"
    elif coeff.kind == "q":
        free_symbol = "Q"
    else:
        free_symbol = f"(Z/{coeff.modulus})"
    parts = []
    if g.free_rank == 1:
        parts.append(free_symbol.strip("()"))
    elif g.free_rank > 1:
        parts.append(f"{free_symbol}^{g.free_rank}")
    for t in g.torsion:
        parts.append(f"Z/{t}")
    return " + ".join(parts)


def invariant_chain(cyclic_orders) -> tuple:
    """Rebuild the invariant-factor chain of a direct sum of cyclic groups:
    the Smith form of the diagonal matrix of the orders, 1s dropped.

    0 is not allowed here (free parts are tracked separately by the callers).
    """
    orders = list(cyclic_orders)
    if any(d <= 0 for d in orders):
        raise ValueError("cyclic order must be positive")
    diagonal = IntMatrix.from_entries(len(orders), len(orders),
                                      ({i: d} for i, d in enumerate(orders)))
    return tuple(d for d in smith_normal_form(diagonal, ()).invariant_factors if d != 1)


def convert_group(current: AbelianGroup, neighbor: AbelianGroup,
                  coeff: Coefficients) -> AbelianGroup:
    """Coefficients via the universal coefficient splitting.

    ``current`` is the integral group in the requested degree, ``neighbor``
    the integral group whose torsion contributes the Tor term: the degree
    below for homology-kind theories, the degree above for cohomology-kind
    theories (the dualized complex shifts the correction term up).
    """
    if coeff.kind == "z":
        return current
    if coeff.kind == "q":
        return AbelianGroup(current.free_rank)
    m = coeff.modulus
    orders = []
    full = 0
    # tensor part: Z (x) Z/m and Z/e (x) Z/m
    orders.extend([m] * current.free_rank)
    orders.extend(math.gcd(e, m) for e in current.torsion)
    # Tor part: Tor(Z, Z/m) = 0, Tor(Z/e, Z/m) = Z/gcd(e, m)
    orders.extend(math.gcd(e, m) for e in neighbor.torsion)
    chain = list(invariant_chain(orders))
    while chain and chain[-1] == m:
        chain.pop()
        full += 1
    return AbelianGroup(full, tuple(chain))


# --------------------------------------------------------------------------
# chain complexes of finite simplicial sets

def chain_basis(X: FiniteSimplicialSet, n: int) -> tuple:
    """Normalized basis: the nondegenerate n-cells."""
    return X.cells(n)


def boundary_matrix(X: FiniteSimplicialSet, n: int,
                    excluded: frozenset = frozenset()) -> IntMatrix:
    """The boundary C_n -> C_{n-1} on normalized chains, as a matrix with
    one column per n-cell.  Degenerate faces vanish; cells in ``excluded``
    are dropped from both the basis and the targets (relative complex)."""
    source = [c for c in X.cells(n) if c not in excluded]
    target = [c for c in X.cells(n - 1) if c not in excluded]
    if n <= 0:
        return IntMatrix.zeros(len(target), len(source))
    index = {c: i for i, c in enumerate(target)}
    cols = []
    for cell in source:
        col = {}
        for i in range(n + 1):
            fv = X.face(cell, i)
            if not fv.is_nondegenerate:
                continue
            at = index.get(fv.core)
            if at is None:
                continue
            col[at] = col.get(at, 0) + (-1 if i % 2 else 1)
        cols.append(col)
    return _from_columns(len(target), cols)


def unnormalized_boundary_matrix(X: FiniteSimplicialSet, n: int) -> IntMatrix:
    """The boundary on *all* n-simplices, degenerate ones included."""
    source = all_simplices(X, n)
    if n <= 0:
        return IntMatrix.zeros(0, len(source))
    target = all_simplices(X, n - 1)
    index = {s: i for i, s in enumerate(target)}
    cols = []
    for x in source:
        col = {}
        for i in range(n + 1):
            at = index[apply_ordinal_map(X, x, delta.coface(n - 1, i))]
            col[at] = col.get(at, 0) + (-1 if i % 2 else 1)
        cols.append(col)
    return _from_columns(len(target), cols)


def _from_columns(rows: int, cols) -> IntMatrix:
    """The matrix with the given ``{row: value}`` dict per column; entries
    that cancelled to zero are dropped."""
    cols = [{i: x for i, x in col.items() if x} for col in cols]
    return IntMatrix.from_entries(len(cols), rows, cols).transpose()


# --------------------------------------------------------------------------
# homology presentations

@dataclass
class HomologyPresentation:
    """H = ker(boundary_in) / im(boundary_out), with explicit generators.

    ``orders[i]`` is 0 for a free generator and the torsion order (>= 2)
    otherwise; ``generators[i]`` is the representing cycle in the chain
    basis.  ``reduce`` sends any cycle to its coordinates in this
    presentation (torsion coordinates already reduced mod their order).
    """

    group: AbelianGroup
    orders: tuple
    generators: tuple
    basis_size: int
    _v_inv: IntMatrix = field(repr=False)
    _rank: int = field(repr=False)
    _u_y: IntMatrix = field(repr=False)
    _kept: tuple = field(repr=False)

    def reduce(self, vector) -> tuple:
        vec = tuple(int(v) for v in vector)
        if len(vec) != self.basis_size:
            raise MatrixError(
                f"cycle has length {len(vec)}, basis has {self.basis_size}"
            )
        y = self._v_inv.apply(vec)
        if any(y[i] != 0 for i in range(self._rank)):
            raise MatrixError("vector is not a cycle")
        z = self._u_y.apply(y[self._rank:])
        out = []
        for pos in self._kept:
            order = self.orders[len(out)]
            out.append(z[pos] % order if order >= 2 else z[pos])
        return tuple(out)


def present_homology(boundary_in: IntMatrix, boundary_out: IntMatrix,
                     reduce=None) -> HomologyPresentation:
    """Present ker(boundary_in)/im(boundary_out) with generators.

    ``boundary_in`` consumes the degree (one column per basis element);
    ``boundary_out`` produces into it.  Raises MatrixError if the two do not
    compose to zero.  Only V, V^-1 of boundary_in and U, U^-1 of the
    relations are read.  ``reduce(matrix, track)`` (``smith_normal_form``
    by default) reduces either boundary, tracking at least those; a caller
    presenting neighbouring degrees passes one that shares reductions.
    """
    if boundary_in.cols != boundary_out.rows:
        raise MatrixError(
            f"boundary shapes disagree: in-cols {boundary_in.cols}, out-rows {boundary_out.rows}"
        )
    reduce = reduce or smith_normal_form
    if boundary_in.is_zero():
        # no pivots: V = I, and the relations are boundary_out itself
        r, k = 0, boundary_in.cols
        v_inv = IntMatrix.identity(k)
        dec_y = reduce(boundary_out, ("u", "u_inv"))
        gen_matrix = dec_y.u_inv
    else:
        dec = reduce(boundary_in, ("v", "v_inv"))
        r = dec.rank
        k = boundary_in.cols - r
        v_inv = dec.v_inv
        y_full = (v_inv @ boundary_out).entries
        if any(y_full[:r]):
            raise MatrixError("boundaries do not compose to zero")
        dec_y = smith_normal_form(
            IntMatrix.from_entries(k, boundary_out.cols, y_full[r:]), ("u", "u_inv"))
        kernel = IntMatrix.from_entries(boundary_in.cols, k, (
            {j - r: x for j, x in row.items() if j >= r} for row in dec.v.entries))
        gen_matrix = kernel @ dec_y.u_inv
    orders_all = list(dec_y.invariant_factors) + [0] * (k - dec_y.rank)
    kept = tuple(i for i, d in enumerate(orders_all) if d != 1)
    orders = tuple(orders_all[i] for i in kept)
    torsion = tuple(d for d in orders if d >= 2)
    free_rank = sum(1 for d in orders if d == 0)
    generators = tuple(gen_matrix.col(i) for i in kept)
    # present torsion before free parts is already the SNF order (1s, then
    # growing factors, then 0s); keep it as-is
    return HomologyPresentation(
        group=AbelianGroup(free_rank, torsion),
        orders=orders,
        generators=generators,
        basis_size=boundary_in.cols,
        _v_inv=v_inv,
        _rank=r,
        _u_y=dec_y.u,
        _kept=kept,
    )


def is_surjective_on_classes(target: HomologyPresentation, images) -> bool:
    """Whether classes with the given target coordinates generate the target.

    The target is Z^k modulo its torsion relations; the images generate iff
    the augmented (images | relations) matrix has all k invariant factors
    equal to one.
    """
    k = len(target.orders)
    if k == 0:
        return True
    cols = [dict(enumerate(img)) for img in images]
    cols += [{i: d} for i, d in enumerate(target.orders) if d >= 2]
    dec = smith_normal_form(_from_columns(k, cols), ())
    return dec.rank == k and all(f == 1 for f in dec.invariant_factors)


def is_transition_isomorphism(source: HomologyPresentation,
                              target: HomologyPresentation,
                              chain_map) -> bool:
    """Isomorphism test for a map of finitely generated abelian groups:
    abstract equality plus surjectivity suffices (such groups are Hopfian,
    so a surjective self-shape map is injective)."""
    if source.group != target.group:
        return False
    return is_surjective_on_classes(
        target, [target.reduce(chain_map(g)) for g in source.generators])


# --------------------------------------------------------------------------
# stage systems

@dataclass
class StageComplex:
    """One truncation's chain data: the stage complex, the basis per degree
    (possibly relative to the frontier), and boundary matrices."""

    complex: FiniteSimplicialSet
    excluded: frozenset
    _bases: dict = field(default_factory=dict)
    _matrices: dict = field(default_factory=dict)

    def basis(self, n: int) -> tuple:
        if n not in self._bases:
            self._bases[n] = tuple(
                c for c in self.complex.cells(n) if c not in self.excluded
            )
        return self._bases[n]

    def boundary(self, n: int) -> IntMatrix:
        if n not in self._matrices:
            self._matrices[n] = boundary_matrix(self.complex, n, self.excluded)
        return self._matrices[n]


def _cell_map(source: tuple, target: tuple, total: bool) -> tuple:
    """A stage transition on one basis: for each source cell its index in
    the target basis, or None where the cell maps to zero.  An inclusion is
    total; a projection modulo the frontier sends the cells it drops to
    zero."""
    index = {c: i for i, c in enumerate(target)}
    cells = tuple(index.get(c) for c in source)
    if total and None in cells:
        raise MatrixError(f"{source[cells.index(None)]} missing from the larger basis")
    return cells


def _push(cells: tuple, size: int, vector) -> tuple:
    """A chain along the cell map (scatter-add into a basis of ``size``)."""
    out = [0] * size
    for i, a in zip(cells, vector):
        if i is not None:
            out[i] += a
    return tuple(out)


def _pull(cells: tuple, vector) -> tuple:
    """A cochain back along the cell map (gather)."""
    return tuple(0 if i is None else vector[i] for i in cells)


def _check_chain_map(cells, cells_below, d_source, d_target, context):
    """Each source boundary column, pushed along the degree-below map, must
    be the target boundary column at the cell's image (zero if none)."""
    target_cols = d_target.transpose().entries
    for i, col in zip(cells, d_source.transpose().entries):
        pushed = {}
        for r, a in col.items():
            if cells_below[r] is not None:
                pushed[cells_below[r]] = pushed.get(cells_below[r], 0) + a
        image = {} if i is None else target_cols[i]
        if {r: a for r, a in pushed.items() if a} != image:
            raise MatrixError(f"{context}: transition does not commute with the boundary")


# --------------------------------------------------------------------------
# theory results

@dataclass
class TheoryResult:
    """One theory on one space: groups per degree, with provenance of the
    stabilization when the space was an exhaustion."""

    theory: str
    space: str
    coefficients: Coefficients
    groups: dict
    stabilized_at: dict | None = None
    window: int | None = None
    depth_used: int | None = None
    caveats: list = field(default_factory=list)
    presentations: dict | None = None
    bases: dict | None = None

    def group(self, n: int) -> AbelianGroup:
        return self.groups.get(n, TRIVIAL_GROUP)


def _present_degrees(stage: StageComplex, degrees, dual: bool) -> dict:
    """The stage's presentations in the given degrees, of its chains or,
    when ``dual``, of its cochains: the coboundary out of degree n is the
    transpose of the boundary into it.  A degree with zero in-boundary has
    its neighbour's in-boundary as relations; when both degrees are asked
    for, that matrix is reduced once, tracking all four transforms."""
    step = -1 if dual else 1
    transposes = {}

    def boundary_in(n):
        if dual and n not in transposes:
            transposes[n] = stage.boundary(n + 1).transpose()
        return transposes[n] if dual else stage.boundary(n)

    wanted = [n for n in degrees if n >= 0]
    shared = {id(boundary_in(n + step)) for n in wanted
              if n + step in wanted and boundary_in(n).is_zero()}
    reductions = {}

    def reduce(m, track):
        if id(m) not in shared:
            return smith_normal_form(m, track)
        if id(m) not in reductions:
            reductions[id(m)] = smith_normal_form(m)
        return reductions[id(m)]

    return {n: present_homology(boundary_in(n), boundary_in(n + step), reduce)
            for n in wanted}


def _default_max_degree(space) -> int:
    if isinstance(space, FiniteSimplicialSet):
        return max(space.top_dim, 0)
    return max(space.base.top_dim, space.slab.top_dim, 0)


def _space_label(space, fallback: str) -> str:
    return getattr(space, "name", None) or fallback


def _convert_results(theory, space_label, coeff, cohomological,
                     stabilized_at, window, depth_used, caveats,
                     presentations, bases, max_degree):
    """Apply the coefficient conversion to the presentations' integral
    groups."""
    integral = {n: p.group for n, p in presentations.items()}
    groups = {}
    stab = dict(stabilized_at) if stabilized_at is not None else None
    for n in range(max_degree + 1):
        current = integral.get(n, TRIVIAL_GROUP)
        neighbor_deg = n + 1 if cohomological else n - 1
        neighbor = integral.get(neighbor_deg, TRIVIAL_GROUP)
        groups[n] = convert_group(current, neighbor, coeff)
        if stab is not None and coeff.kind == "zmod":
            # the Tor term imports the neighbor's stabilization depth
            depths = [d for d in (stabilized_at.get(n), stabilized_at.get(neighbor_deg))
                      if d is not None]
            if depths:
                stab[n] = max(depths)
    if coeff.kind != "z":
        caveats = caveats + [
            f"{coeff.label} groups derived from the integral computation by "
            "the universal coefficient splitting"
        ]
    return TheoryResult(
        theory=theory,
        space=space_label,
        coefficients=coeff,
        groups=groups,
        stabilized_at=stab,
        window=window,
        depth_used=depth_used,
        caveats=caveats,
        presentations=presentations if coeff.kind == "z" else None,
        bases=bases if coeff.kind == "z" else None,
    )


# --------------------------------------------------------------------------
# the four theories

def _stage_for(space, depth: int, relative: bool) -> StageComplex:
    trunc = space.truncate(depth)
    excluded = frozenset(trunc.frontier) if relative else frozenset()
    return StageComplex(trunc.complex, excluded)


def _run_system(space, theory, degrees, window, max_depth, relative, dual):
    """Shared limit/colimit engine over exhaustion stages.

    ``relative`` uses stage-relative complexes (chains mod frontier), whose
    chain maps project stage i+1 onto stage i; otherwise stage i includes
    into stage i+1.  ``dual`` presents cohomology of the stage (co)chain
    complexes, which reverses the map on classes.  So the classes move from
    stage i to i+1 (a colimit) exactly when ``relative == dual``.

    Returns the presentations at ``depth_used``, that stage, the degrees'
    stabilization depths, ``depth_used`` and the caveats.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    lf = is_locally_finite(space)
    if not lf.ok:
        raise SimplicialError(
            f"space is not locally finite: {lf.witness}"
        )
    stages = {}
    presentations = {}

    def present(i, wanted) -> dict:
        """Stage i's presentations, made for the wanted degrees it lacks: a
        degree is read until it stabilizes, and at ``depth_used``."""
        if i not in stages:
            stages[i] = _stage_for(space, i, relative)
            presentations[i] = {}
        have = presentations[i]
        have.update(_present_degrees(stages[i], [n for n in wanted if n not in have], dual))
        return {n: have[n] for n in wanted}

    def transition_is_iso(i, n):
        """Whether the degree-n transition between stages i and i+1 is an
        isomorphism on classes, after checking it is a chain map."""
        a, b = (i + 1, i) if relative else (i, i + 1)  # chain-level direction
        source, target = stages[a], stages[b]
        cells = _cell_map(source.basis(n), target.basis(n), total=not relative)
        below = _cell_map(source.basis(n - 1), target.basis(n - 1), total=not relative)
        _check_chain_map(cells, below, source.boundary(n), target.boundary(n),
                         f"{theory} degree {n} stages {i}{'<-' if relative else '->'}{i + 1}")
        if dual:
            return is_transition_isomorphism(presentations[b][n], presentations[a][n],
                                             lambda v: _pull(cells, v))
        size = len(target.basis(n))
        return is_transition_isomorphism(presentations[a][n], presentations[b][n],
                                         lambda v: _push(cells, size, v))

    stabilized = {}
    quiet = {n: 0 for n in degrees}
    history = {n: [] for n in degrees}
    depth = 0
    for n, p in present(0, degrees).items():
        history[n].append(p.group)
    while len(stabilized) < len(degrees):
        unsettled = [n for n in degrees if n not in stabilized]
        if depth + 1 > max_depth:
            worst = unsettled[0]
            raise NonStabilizationError(
                f"{theory} degree {worst} did not stabilize within depth "
                f"{max_depth} (window {window}); groups so far: "
                + ", ".join(render_group(g) for g in history[worst]),
                theory=theory,
                degree=worst,
                history=[
                    (n, [render_group(g) for g in history[n]]) for n in unsettled
                ],
            )
        for n, p in present(depth + 1, unsettled).items():
            history[n].append(p.group)
            if transition_is_iso(depth, n):
                quiet[n] += 1
                if quiet[n] >= window:
                    stabilized[n] = depth + 1 - window
            else:
                quiet[n] = 0
        depth += 1
    depth_used = max(stabilized.values(), default=0)
    caveats = [
        "transition maps verified to be isomorphisms for "
        f"{window} consecutive stages; the periodic presentation is assumed "
        "to keep them isomorphisms beyond the probed depth"
    ]
    if relative != dual:
        caveats.append(
            "limit computed as the stable value; the derived limit vanishes "
            "because the probed transitions are isomorphisms (Mittag-Leffler)"
        )
    return present(depth_used, degrees), stages[depth_used], stabilized, depth_used, caveats


# tag -> (relative, dual, caveat on a finite complex)
_THEORIES = {
    "H": (False, False, None),
    "H_BM": (True, False, "finite complex: Borel–Moore equals ordinary homology"),
    "H_co": (False, True, None),
    "H_c": (True, True, "finite complex: compact support is automatic"),
}


def _theory(tag, space, coeff, max_degree, window, max_depth) -> TheoryResult:
    relative, dual, finite_caveat = _THEORIES[tag]
    if max_degree is None:
        max_degree = _default_max_degree(space)
    # z/M also presents the degree above, which the cohomology-kind Tor term reads
    degrees = range(max_degree + (2 if coeff.kind == "zmod" else 1))
    if isinstance(space, FiniteSimplicialSet):
        stage = StageComplex(space, frozenset())
        final = _present_degrees(stage, degrees, dual)
        stabilized = window = depth_used = None
        caveats = []
    else:
        final, stage, stabilized, depth_used, caveats = _run_system(
            space, tag, degrees, window, max_depth, relative, dual)
        finite_caveat = None
    result = _convert_results(
        tag, _space_label(space, "space"), coeff,
        cohomological=dual,
        stabilized_at=stabilized, window=window, depth_used=depth_used,
        caveats=caveats,
        presentations=final, bases={n: stage.basis(n) for n in degrees},
        max_degree=max_degree,
    )
    if finite_caveat:  # after the coefficient caveat
        result.caveats.append(finite_caveat)
    return result


def homology(space, coeff: Coefficients = INTEGER, max_degree: int | None = None,
             window: int = 3, max_depth: int = 12) -> TheoryResult:
    """Ordinary homology; on an exhaustion, the colimit over the stages."""
    return _theory("H", space, coeff, max_degree, window, max_depth)


def bm_homology(space, coeff: Coefficients = INTEGER, max_degree: int | None = None,
                window: int = 3, max_depth: int = 12) -> TheoryResult:
    """Borel–Moore homology: chains modulo the frontier, limit over stages.

    On a finite complex this coincides with ordinary homology (the frontier
    is empty); the result is tagged H_BM either way.
    """
    return _theory("H_BM", space, coeff, max_degree, window, max_depth)


def cohomology(space, coeff: Coefficients = INTEGER, max_degree: int | None = None,
               window: int = 3, max_depth: int = 12) -> TheoryResult:
    """Ordinary cohomology; on an exhaustion, the limit along restrictions."""
    return _theory("H_co", space, coeff, max_degree, window, max_depth)


def cohomology_c(space, coeff: Coefficients = INTEGER, max_degree: int | None = None,
                 window: int = 3, max_depth: int = 12) -> TheoryResult:
    """Compactly supported cohomology: colimit of the duals of the
    stage-relative complexes, transitions extending by zero.

    Finite complexes give ordinary cohomology.
    """
    return _theory("H_c", space, coeff, max_degree, window, max_depth)


THEORY_DRIVERS = {
    "H": homology,
    "H_BM": bm_homology,
    "H_co": cohomology,
    "H_c": cohomology_c,
}


# --------------------------------------------------------------------------
# chains, cochains, pairings

def _support(X: FiniteSimplicialSet, degree: int, values: dict) -> dict:
    """The nonzero values, keyed by cells of X of the given degree."""
    clean = {}
    for cell, a in values.items():
        if not isinstance(cell, Cell) or cell.dim != degree:
            raise SimplicialError(f"{cell} is not a {degree}-cell")
        if not X.has_cell(cell):
            raise SimplicialError(f"{cell} is not in the complex")
        if a:
            clean[cell] = int(a)
    return clean


@dataclass
class Chain:
    """A finitely supported integer chain on the nondegenerate cells."""

    complex: FiniteSimplicialSet
    degree: int
    coeffs: dict

    def __post_init__(self):
        self.coeffs = _support(self.complex, self.degree, self.coeffs)

    def vector(self, basis) -> tuple:
        return tuple(self.coeffs.get(c, 0) for c in basis)

    def __eq__(self, other):
        return (
            isinstance(other, Chain)
            and self.complex is other.complex
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )


@dataclass
class Cochain:
    """A function on nondegenerate cells (vanishing on degenerates)."""

    complex: FiniteSimplicialSet
    degree: int
    values: dict

    def __post_init__(self):
        self.values = _support(self.complex, self.degree, self.values)

    def __call__(self, x) -> int:
        if isinstance(x, Cell):
            return self.values.get(x, 0)
        if isinstance(x, Simplex):
            if not x.is_nondegenerate:
                return 0
            return self.values.get(x.core, 0)
        raise SimplicialError(f"cannot evaluate a cochain on {x!r}")

    def vector(self, basis) -> tuple:
        return tuple(self.values.get(c, 0) for c in basis)


def boundary(chain: Chain) -> Chain:
    out = {}
    X = chain.complex
    for cell, a in chain.coeffs.items():
        for i in range(chain.degree + 1):
            fv = X.face(cell, i)
            if not fv.is_nondegenerate:
                continue
            sign = -1 if i % 2 else 1
            out[fv.core] = out.get(fv.core, 0) + sign * a
    return Chain(X, chain.degree - 1, out)


def coboundary(cochain: Cochain) -> Cochain:
    X = cochain.complex
    out = {}
    for cell in X.cells(cochain.degree + 1):
        total = 0
        for i in range(cochain.degree + 2):
            fv = X.face(cell, i)
            sign = -1 if i % 2 else 1
            total += sign * cochain(fv)
        if total:
            out[cell] = total
    return Cochain(X, cochain.degree + 1, out)


def pairing(cochain: Cochain, chain: Chain) -> int:
    if cochain.complex is not chain.complex or cochain.degree != chain.degree:
        raise SimplicialError("pairing needs a cochain and chain of the same degree")
    return sum(cochain.values.get(c, 0) * a for c, a in chain.coeffs.items())


def pushforward(f: SimplicialMap, chain: Chain) -> Chain:
    """The induced map on normalized chains: degenerate images vanish."""
    if chain.complex is not f.source:
        raise SimplicialError("chain does not live on the map's source")
    out = {}
    for cell, a in chain.coeffs.items():
        img = f.eval(f.source.simplex(cell))
        if not img.is_nondegenerate:
            continue
        out[img.core] = out.get(img.core, 0) + a
    return Chain(f.target, chain.degree, out)


def _pulled(f: SimplicialMap, cochain: Cochain) -> dict:
    """The nonzero values of the pullback, on the source cells."""
    out = {}
    for cell in f.source.cells(cochain.degree):
        v = cochain(f.eval(f.source.simplex(cell)))
        if v:
            out[cell] = v
    return out


def pullback(f: SimplicialMap, cochain: Cochain) -> Cochain:
    """Dual of the pushforward.  Total on finite complexes."""
    if cochain.complex is not f.target:
        raise SimplicialError("cochain does not live on the map's target")
    return Cochain(f.source, cochain.degree, _pulled(f, cochain))


def pullback_periodic(f, cochain: Cochain, depth: int, max_depth: int = 12):
    """Pullback of a compactly supported cochain along a periodic map.

    Requires the map to be proper — otherwise the preimage support would be
    infinite and the result would not be compactly supported; raises
    ControlError in that case.  The result is computed at increasing stages
    until its support stops growing, and returned on the source stage where
    it settled.
    """
    from .sset import PeriodicMap, is_proper_map

    if not isinstance(f, PeriodicMap):
        raise SimplicialError("pullback_periodic needs a periodic map")
    proper = is_proper_map(f, max_depth=max_depth)
    if not proper.ok:
        raise ControlError(
            "pullback of compactly supported cochains needs a proper map: "
            + (proper.witness or "not proper")
        )
    previous = None
    for d in range(depth, max_depth + 1):
        level = f.level_map(d)
        pulled = _pulled(level, cochain)
        if previous is not None and pulled == previous[1]:
            return Cochain(level.source, cochain.degree, pulled)
        previous = (d, pulled)
    raise ControlError(
        f"pullback support kept growing through depth {max_depth}"
    )


# --------------------------------------------------------------------------
# the Borel–Moore / compact-support pairing

@dataclass
class PairingResult:
    degree: int
    depth: int | None
    bm_group: AbelianGroup
    cc_group: AbelianGroup
    matrix: tuple  # rows: compact-support classes, cols: Borel–Moore classes


def pairing_matrix(space, degree: int, window: int = 3,
                   max_depth: int = 12) -> PairingResult:
    """Evaluate compact-support cohomology classes on Borel–Moore classes.

    Both theories are stabilized first; the pairing is then the coordinate
    dot product at a common stage (the class pairing is independent of the
    representatives: coboundaries pair to zero with cycles and vice versa).
    On a finite complex this is the plain evaluation of cohomology on
    homology.
    """
    if degree < 0:
        raise ValueError("degree must be at least 0")
    if isinstance(space, FiniteSimplicialSet):
        depth = None
        stage = StageComplex(space, frozenset())
    else:
        bm = bm_homology(space, INTEGER, max_degree=degree, window=window,
                         max_depth=max_depth)
        cc = cohomology_c(space, INTEGER, max_degree=degree, window=window,
                          max_depth=max_depth)
        depth = max(bm.depth_used, cc.depth_used)
        stage = _stage_for(space, depth, relative=True)
    pres = _present_degrees(stage, [degree], dual=False)[degree]
    dual_pres = _present_degrees(stage, [degree], dual=True)[degree]
    matrix = tuple(tuple(sum(a * b for a, b in zip(phi, c)) for c in pres.generators)
                   for phi in dual_pres.generators)
    return PairingResult(
        degree=degree,
        depth=depth,
        bm_group=pres.group,
        cc_group=dual_pres.group,
        matrix=matrix,
    )


# --------------------------------------------------------------------------
# small conveniences used by tests and the CLI

def euler_characteristic(result: TheoryResult) -> int:
    """Alternating sum of free ranks over the computed degrees."""
    return sum(
        (-1) ** n * g.free_rank for n, g in sorted(result.groups.items())
    )


def induced_on_homology(f: SimplicialMap, degree: int):
    """The matrix of H_degree(f) between the normalized presentations,
    returned as (source_presentation, target_presentation, image_coords)."""
    src = StageComplex(f.source, frozenset())
    tgt = StageComplex(f.target, frozenset())
    ps = present_homology(src.boundary(degree), src.boundary(degree + 1))
    pt = present_homology(tgt.boundary(degree), tgt.boundary(degree + 1))
    index = {c: i for i, c in enumerate(tgt.basis(degree))}
    images = (f.eval(f.source.simplex(c)) for c in src.basis(degree))
    cells = tuple(index[img.core] if img.is_nondegenerate else None for img in images)
    size = len(tgt.basis(degree))
    return ps, pt, [pt.reduce(_push(cells, size, g)) for g in ps.generators]
