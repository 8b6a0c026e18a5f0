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
NonStabilizationError with its history attached.  Excision and the exact
sequence of a pair decide most transitions from the slab without bases
(``_StageSystem``).  Boundary columns, cell positions and the resolved chains
(``Exhaustion.gluings``) are ``sset``'s; chains, cochains and the maps they
are pushed and pulled along are in ``maps``, whose ``boundary`` reads those
columns and whose ``coboundary`` does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count

from .snf import IntMatrix, MatrixError, invariant_factors, smith_normal_form
from .sset import (
    FiniteSimplicialSet,
    SimplicialError,
    all_simplices,
    apply_ordinal_map,
    is_locally_finite,
)
from . import delta


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

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
            if self.modulus is not None and not _is_int(self.modulus):
                raise CoefficientError(f"a modulus must be an integer, not {self.modulus!r}")
            if self.modulus is None or self.modulus < 2:
                raise CoefficientError("cyclic coefficients need a modulus >= 2")
        elif self.modulus is not None:
            raise CoefficientError("only z/M takes a modulus")

    @property
    def label(self) -> str:
        return {"z": "Z", "q": "Q"}.get(self.kind) or f"Z/{self.modulus}"

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
    free_symbol = f"({coeff.label})" if coeff.kind == "zmod" else coeff.label
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

def boundary_matrix(X: FiniteSimplicialSet, n: int) -> IntMatrix:
    """The boundary C_n -> C_{n-1} on normalized chains, as a matrix with
    one column per n-cell.  Degenerate faces vanish."""
    return StageComplex(X, frozenset()).boundary(n)


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
    return _rows(len(target), cols)


def _rows(rows: int, columns: list) -> IntMatrix:
    """The matrix with the given ``{row: value}`` dict per column, built by
    rows in one pass; entries that cancelled to zero are dropped."""
    out = [{} for _ in range(rows)]
    for k, col in enumerate(columns):
        for r, x in col.items():
            if x:
                out[r][k] = x
    return IntMatrix.from_entries(rows, len(columns), out)


# --------------------------------------------------------------------------
# homology presentations

class HomologyPresentation:
    """H = ker(boundary_in) / im(boundary_out), with explicit generators.

    ``group`` is set at once; the basis fields are built on first read.
    ``orders[i]`` is 0 for a free generator and the torsion order (>= 2)
    otherwise; ``generators[i]`` is the representing cycle in the chain
    basis.  ``reduce`` sends any cycle to its coordinates in this
    presentation (torsion coordinates already reduced mod their order).
    """

    _BASIS = ("orders", "generators", "_v_inv", "_rank", "_u_y", "_kept")

    def __init__(self, group: AbelianGroup, basis_size: int, build):
        self.group = group
        self.basis_size = basis_size
        self._build = build

    def __getattr__(self, name):
        # reached only for a field not yet set: a basis field builds them all
        if name not in HomologyPresentation._BASIS:
            raise AttributeError(name)
        self.__dict__.update(self._build())
        return self.__dict__[name]

    def __repr__(self):
        return f"HomologyPresentation({render_group(self.group)}, basis_size={self.basis_size})"

    def reduce(self, vector) -> tuple:
        vec = tuple(int(v) for v in vector)
        if len(vec) != self.basis_size:
            raise MatrixError(f"cycle has length {len(vec)}, basis has {self.basis_size}")
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
                     factors=None) -> HomologyPresentation:
    """Present ker(boundary_in)/im(boundary_out).

    ``boundary_in`` consumes the degree (one column per basis element);
    ``boundary_out`` produces into it.  Raises MatrixError if the two do not
    compose to zero.  The group is read off their invariant factors
    (``factors``, when given): the free rank is the basis size less both
    ranks, the torsion the factors of ``boundary_out`` above 1.  The basis
    is built when first read, reading only V, V^-1 of boundary_in and U,
    U^-1 of the relations.
    """
    if boundary_in.cols != boundary_out.rows:
        raise MatrixError(f"boundary shapes disagree: in-cols {boundary_in.cols}, "
                          f"out-rows {boundary_out.rows}")
    if not (boundary_in @ boundary_out).is_zero():
        raise MatrixError("boundaries do not compose to zero")
    f_in, f_out = factors or (invariant_factors(boundary_in), invariant_factors(boundary_out))
    group = AbelianGroup(boundary_in.cols - len(f_in) - len(f_out),
                         tuple(f for f in f_out if f > 1))
    return HomologyPresentation(group, boundary_in.cols,
                                lambda: _basis(boundary_in, boundary_out))


def _basis(boundary_in: IntMatrix, boundary_out: IntMatrix) -> dict:
    """A presentation's basis fields, from fixed-pivot Smith reductions."""
    dec = smith_normal_form(boundary_in, ("v", "v_inv"))
    r = dec.rank
    k = boundary_in.cols - r
    # the first r rows vanish, as the boundaries compose to zero
    relations = (dec.v_inv @ boundary_out).entries[r:]
    dec_y = smith_normal_form(
        IntMatrix.from_entries(k, boundary_out.cols, relations), ("u", "u_inv"))
    gen_matrix = dec.v.drop_cols(r) @ dec_y.u_inv  # V's last k columns span the kernel
    # the Smith order (1s, then growing factors, then 0s) without the 1s
    orders_all = list(dec_y.invariant_factors) + [0] * (k - dec_y.rank)
    kept = tuple(i for i, d in enumerate(orders_all) if d != 1)
    return {"orders": tuple(orders_all[i] for i in kept),
            "generators": tuple(gen_matrix.col(i) for i in kept),
            "_v_inv": dec.v_inv, "_rank": r, "_u_y": dec_y.u, "_kept": kept}


def is_transition_isomorphism(source: HomologyPresentation,
                              target: HomologyPresentation,
                              chain_map) -> bool:
    """Isomorphism test for a map of finitely generated abelian groups:
    abstract equality plus surjectivity suffices (such groups are Hopfian,
    so a surjective self-shape map is injective).  The target is Z^k modulo
    its torsion relations; the images of the source generators generate it
    iff the augmented (images | relations) matrix has all k invariant
    factors equal to one."""
    if source.group != target.group or source.group.is_trivial:
        return source.group == target.group
    k = len(target.orders)
    cols = [dict(enumerate(target.reduce(chain_map(g)))) for g in source.generators]
    cols += [{i: d} for i, d in enumerate(target.orders) if d >= 2]
    return invariant_factors(_rows(k, cols)) == (1,) * k


# --------------------------------------------------------------------------
# stage systems

@dataclass
class StageComplex:
    """One truncation's chain data: the stage complex and the cells left out
    of its basis (the frontier, for a relative stage).  Its columns are the
    complex's ``boundary_columns``, rows at the cells' positions there; its
    matrices re-index them to the basis, and their invariant factors, the
    rows of their unit pivots and its presentations are kept."""

    complex: FiniteSimplicialSet
    excluded: frozenset
    _matrices: dict = field(default_factory=dict)
    _factors: dict = field(default_factory=dict)
    _pivots: dict = field(default_factory=dict)
    _presented: dict = field(default_factory=dict)
    _bases: dict = field(default_factory=dict)

    def basis(self, n: int) -> tuple:
        if n not in self._bases:
            self._bases[n] = tuple(c for c in self.complex.cells(n) if c not in self.excluded)
        return self._bases[n]

    def boundary(self, n: int, transposed: bool = False) -> IntMatrix:
        """The boundary out of degree n on the basis, by rows; ``transposed``,
        the coboundary into degree n, whose rows are the columns."""
        if (n, transposed) not in self._matrices:
            cols, rows = self.complex.boundary_columns(n), len(self.basis(n - 1))
            if self.excluded:
                index = dict(zip((r for r, c in enumerate(self.complex.cells(n - 1))
                                  if c not in self.excluded), count()))
                cols = [{index[r]: x for r, x in col.items() if r in index}
                        for c, col in zip(self.complex.cells(n), cols) if c not in self.excluded]
            self._matrices[n, transposed] = (IntMatrix.from_entries(len(cols), rows, cols)
                                             if transposed else _rows(rows, cols))
        return self._matrices[n, transposed]

    def factors(self, n: int, transposed: bool = False) -> tuple:
        """The invariant factors of ``boundary(n)``, and of its transpose, less
        the columns at the unit-pivot rows of the map into its source if this
        variance reduced that first.  A unit pivot of ∂_{n+1} at (σ, τ) gives
        0 = ∂_n ∂_{n+1} τ = ±∂_n σ + Σ_{ρ≠σ} a_ρ ∂_n ρ: column σ of ∂_n is in the ℤ-span
        of the others, and dropping it keeps the image lattice, so every nonzero
        factor.  A Schur complement is again a complex; transposed alike."""
        if n not in self._factors:
            above = self._pivots.get((n - 1 if transposed else n + 1, transposed), ())
            pivots = self._pivots[n, transposed] = set()
            self._factors[n] = invariant_factors(self.boundary(n, transposed), above, pivots)
        return self._factors[n]

    def present(self, degrees, dual: bool) -> dict:
        """The presentations in the given degrees, of the chains or, when
        ``dual``, of the cochains: the coboundary out of degree n is the
        transpose of the boundary into it.  Each is made once, and their
        groups share the stage's invariant factors.  Chains go in descending
        degree and cochains ascending, so the map into a degree is reduced
        before the map out of it, which ``factors`` then reduces smaller."""
        step, shift = (-1, 1) if dual else (1, 0)  # boundary_in(n) is boundary n + shift
        for n in sorted(degrees, reverse=not dual):
            if (n, dual) not in self._presented:
                self._presented[n, dual] = present_homology(
                    self.boundary(n + shift, dual), self.boundary(n + step + shift, dual),
                    (self.factors(n + shift, dual), self.factors(n + step + shift, dual)))
        return {n: self._presented[n, dual] for n in degrees}


def _cell_map(source: tuple, target: tuple) -> tuple:
    """A stage transition on one basis: for each source cell its index in
    the target basis, or None where the cell maps to zero (a projection
    modulo the frontier sends the cells it drops to zero)."""
    index = {c: i for i, c in enumerate(target)}
    return tuple(index.get(c) for c in source)


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

    def group(self, n: int) -> AbelianGroup:
        return self.groups.get(n, TRIVIAL_GROUP)


# --------------------------------------------------------------------------
# the four theories

def _slab_obstructions(space, relative: bool):
    """The (degree, dual) pairs where the slab's homology, or when ``dual``
    its cohomology, relative to some chain's in-boundary (out-boundary when
    ``relative``) is not zero, or None where a chain's boundaries meet.  H^k
    vanishes iff H_k has no free part and H_{k-1} no torsion."""
    if relative and any(set(g.into) & set(g.out) for g in space.gluings):
        return None
    found = set()
    for boundary in dict.fromkeys(frozenset(g.out if relative else g.into) for g in space.gluings):
        slab = StageComplex(space.slab, boundary)
        for k, p in slab.present(range(space.slab.top_dim + 1), dual=False).items():
            found |= {(k, False), (k, True)} if p.group.free_rank else set()
            found |= {(k, False), (k + 1, True)} if p.group.torsion else set()
    return found


class _StageSystem:
    """The stages of one run over an exhaustion, absolute or ``relative`` to
    the frontier, behind the local-finiteness gate.  Each stage is made once
    per system and keeps its presentations, and each verdict is kept; the
    pairing runs both of its theories on one system.  The space keeps
    nothing of a run.

    Stage i+1 adds one slab copy per chain a, glued along its in-boundary
    in_a, so C(K_{i+1})/C(K_i) is the sum Q of the C(slab, in_a) from stage 0
    on; a projection of stage-relative complexes has kernel Q, the sum of the
    C(slab, out_a), from stage 1 on if in_a and out_a are disjoint (at stage 0
    the chains may share base cells, as the line's share its origin).  In the
    long exact sequence of either pair, or its dual, where the neighbouring
    degree (n-1 for chains, n+1 for cochains; one outside 0..top is) is
    injective, the cokernel in degree n is H_n(Q) for inclusions, H_{n-1}(Q)
    for projections, H^{n+1}(Q) for restrictions and H^n(Q) for extensions by
    zero.  A surjection between isomorphic finitely generated abelian groups
    is injective, so degree n is an isomorphism iff its groups are equal and
    that group is zero.  Where Q is acyclic, every transition from stage 0
    (or 1) on is one (``certified``: a finite free acyclic complex is
    contractible, so its dual is acyclic too), and no later stage is
    presented."""

    def __init__(self, space, relative: bool):
        report = is_locally_finite(space)
        if not report.ok:
            raise SimplicialError(f"space is not locally finite: {report.witness}")
        self.space, self.relative, self._stages, self._verdicts = space, relative, {}, {}
        self.top = max(space.base.top_dim, space.slab.top_dim)
        self.obstructions = _slab_obstructions(space, relative)
        self.certified = None if self.obstructions != set() else int(relative)

    def stage(self, i: int) -> StageComplex:
        if i not in self._stages:
            trunc = self.space.truncate(i)
            self._stages[i] = StageComplex(trunc.complex,
                                           frozenset(trunc.frontier if self.relative else ()))
        return self._stages[i]

    def present(self, i: int, dual: bool, degrees) -> dict:
        """Stage i's presentations in the given degrees; from the certified
        stage on, those of that stage, whose groups every later stage has."""
        return self.stage(i if self.certified is None else min(i, self.certified)).present(
            degrees, dual)

    def transition_is_iso(self, i: int, n: int, dual: bool) -> bool:
        """Whether the degree-n transition between stages i and i+1 is an
        isomorphism on classes, from the slab where the neighbouring degree
        is one and the rule covers stage i, and elsewhere from bases."""
        if (i, n, dual) not in self._verdicts:
            self._verdicts[i, n, dual] = self._decide(i, n, dual)
        return self._verdicts[i, n, dual]

    def _decide(self, i: int, n: int, dual: bool) -> bool:
        if self.certified is not None and i >= self.certified:
            return True
        a, b = (i + 1, i) if self.relative else (i, i + 1)  # chain-level direction
        source, target = self.present(a, dual, [n])[n], self.present(b, dual, [n])[n]
        m = n + 1 if dual else n - 1
        if self.obstructions is not None and i >= self.relative and (
                not 0 <= m <= self.top or self.transition_is_iso(i, m, dual)):
            return source.group == target.group and (n + dual - self.relative, dual) \
                not in self.obstructions
        cells = _cell_map(self.stage(a).basis(n), self.stage(b).basis(n))
        if dual:
            return is_transition_isomorphism(target, source, lambda v: _pull(cells, v))
        size = len(self.stage(b).basis(n))
        return is_transition_isomorphism(source, target, lambda v: _push(cells, size, v))

    def run(self, theory, degrees, window, max_depth, dual):
        """The shared limit/colimit engine over the stages.

        A relative system uses stage-relative complexes (chains mod
        frontier), whose chain maps project stage i+1 onto stage i; otherwise
        stage i includes into stage i+1.  ``dual`` presents cohomology of the
        stage (co)chain complexes, which reverses the map on classes.  So the
        classes move from stage i to i+1 (a colimit) exactly when
        ``relative == dual``.

        The transitions are chain maps by construction
        (``Exhaustion.truncate``).  A degree is presented until it
        stabilizes, and at ``depth_used``.

        Returns the degrees' stabilization depths, ``depth_used`` and the
        caveats; the stages keep the presentations at ``depth_used``.
        """
        stabilized = {}
        quiet = {n: 0 for n in degrees}
        history = {n: [] for n in degrees}
        depth = 0
        for n, p in self.present(0, dual, degrees).items():
            history[n].append(p.group)
        while len(stabilized) < len(degrees):
            unsettled = [n for n in degrees if n not in stabilized]
            if depth + 1 > max_depth:
                worst = unsettled[0]
                raise NonStabilizationError(
                    f"{theory} degree {worst} did not stabilize within depth {max_depth} (window "
                    f"{window}); groups so far: " + ", ".join(map(render_group, history[worst])),
                    theory=theory, degree=worst,
                    history=[(n, [render_group(g) for g in history[n]]) for n in unsettled])
            for n, p in self.present(depth + 1, dual, unsettled).items():
                history[n].append(p.group)
                if self.transition_is_iso(depth, n, dual):
                    quiet[n] += 1
                    if quiet[n] >= window:
                        stabilized[n] = depth + 1 - window
                else:
                    quiet[n] = 0
            depth += 1
        depth_used = max(stabilized.values(), default=0)
        caveats = ["transition maps verified to be isomorphisms for "
                   f"{window} consecutive stages; the periodic presentation is assumed "
                   "to keep them isomorphisms beyond the probed depth"]
        if self.relative != dual:
            caveats.append("limit computed as the stable value; the derived limit vanishes "
                           "because the probed transitions are isomorphisms (Mittag-Leffler)")
        return stabilized, depth_used, caveats


# tag -> (relative, dual, caveat on a finite complex)
_THEORIES = {
    "H": (False, False, None),
    "H_BM": (True, False, "finite complex: Borel–Moore equals ordinary homology"),
    "H_co": (False, True, None),
    "H_c": (True, True, "finite complex: compact support is automatic"),
}


def _check_arguments(**values):
    """Refuse, by name, a window, depth or degree that is not an integer, a
    window or depth below 1 and a degree below 0 (None is a top degree)."""
    for name, value in values.items():
        low = 0 if "degree" in name else 1
        if value is not None and not _is_int(value):
            raise ValueError(f"{name} must be an integer, not {value!r}")
        if value is not None and value < low:
            raise ValueError(f"{name} must be at least {low}")


def _theory(tag, space, coeff, max_degree, window, max_depth) -> TheoryResult:
    """One theory's groups, converted from its integral presentations."""
    _check_arguments(max_degree=max_degree, window=window, max_depth=max_depth)
    relative, dual, finite_caveat = _THEORIES[tag]
    finite = isinstance(space, FiniteSimplicialSet)
    if max_degree is None:
        max_degree = max(space.top_dim if finite else max(space.base.top_dim, space.slab.top_dim), 0)
    # cohomology under z/M also presents the degree above, which its Tor term reads
    degrees = range(max_degree + (2 if dual and coeff.kind == "zmod" else 1))
    if finite:
        final = StageComplex(space, frozenset()).present(degrees, dual)
        stabilized = window = depth_used = None
        caveats = []
    else:
        system = _StageSystem(space, relative)
        stabilized, depth_used, caveats = system.run(tag, degrees, window, max_depth, dual)
        final = system.present(depth_used, dual, degrees)
    step = 1 if dual else -1  # the Tor term reads the degree above for cohomology
    integral = {n: p.group for n, p in final.items()}
    groups = {n: convert_group(integral.get(n, TRIVIAL_GROUP), integral.get(n + step, TRIVIAL_GROUP),
                               coeff) for n in range(max_degree + 1)}
    if stabilized is not None and coeff.kind == "zmod":
        # the Tor term imports its neighbour's stabilization depth
        stabilized.update({n: max(stabilized[n], stabilized.get(n + step, 0))
                           for n in range(max_degree + 1)})
    if coeff.kind != "z":
        caveats.append(f"{coeff.label} groups derived from the integral computation by "
                       "the universal coefficient splitting")
    if finite and finite_caveat:
        caveats.append(finite_caveat)
    # the presentations are of the integral groups only
    return TheoryResult(tag, getattr(space, "name", None) or "space", coeff, groups, stabilized,
                        window, depth_used, caveats, final if coeff.kind == "z" else None)


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
    _check_arguments(degree=degree, window=window, max_depth=max_depth)
    if isinstance(space, FiniteSimplicialSet):
        depth, stage = None, StageComplex(space, frozenset())
        pres, dual_pres = (stage.present([degree], dual)[degree] for dual in (False, True))
    else:
        system = _StageSystem(space, True)
        depth = max(system.run(tag, range(degree + 1), window, max_depth, dual)[1]
                    for tag, dual in (("H_BM", False), ("H_c", True)))
        pres, dual_pres = (system.present(depth, dual, [degree])[degree] for dual in (False, True))
    matrix = tuple(tuple(sum(a * b for a, b in zip(phi, c)) for c in pres.generators)
                   for phi in dual_pres.generators)
    return PairingResult(degree, depth, pres.group, dual_pres.group, matrix)


# --------------------------------------------------------------------------
# small conveniences used by tests and the CLI

def euler_characteristic(result: TheoryResult) -> int:
    """Alternating sum of free ranks over the computed degrees."""
    return sum((-1) ** n * g.free_rank for n, g in sorted(result.groups.items()))
