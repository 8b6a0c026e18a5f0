"""Maps between simplicial sets and the chains they act on: simplicial and
periodic maps, properness, controlled families of simplices, the proper ⟺
controlled check, chains and cochains with their pairing, pushforward and
pullbacks, and the map a simplicial map induces on homology.

No theory reads any of it, and neither ``sset`` nor ``chainalg`` imports
this module, so a theory, ``check`` or ``pairing`` command never compiles
it.  It is loaded by the first read of one of its names
(``ctlhom.is_proper_map``, say), by the fixture maps of ``corpus``, and by
the tests.  It loads ``chainalg`` only when ``induced_on_homology`` is
called, and the controlled-set layer (``ctlset``) only to refuse a pullback.
An exhaustion's chains are read as ``sset`` resolved them (``Exhaustion.gluings``).
``boundary`` reads each cell's column as the engine does (``sset._column``);
``coboundary`` deliberately walks the faces instead, so that their adjointness
checks those columns against an independent reading.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .sset import (Cell, Exhaustion, FiniteSimplicialSet, SimplicialError, Simplex, _column,
                   _crowding, _word_surjection, apply_ordinal_map, face)


# --------------------------------------------------------------------------
# simplicial maps

class SimplicialMap:
    """A map of finite simplicial sets, given on nondegenerate simplices.

    Values are target simplices in normal form; the extension to degenerate
    simplices pushes the degeneracy word through, and construction checks
    commutation with every face operator (degeneracies then commute by
    construction).
    """

    def __init__(self, source, target, mapping: dict, name=None):
        self.source, self.target, self.name = source, target, name
        self.mapping = dict(mapping)
        _check_values("map", source.all_cells(), self.mapping, target)
        problems = self.face_violations()
        if problems:
            raise SimplicialError("; ".join(problems[:5]))

    def eval(self, x: Simplex) -> Simplex:
        img = self.mapping[x.core]
        if not x.word:
            return img
        return apply_ordinal_map(self.target, img, _word_surjection(x.word, x.dim))

    def face_violations(self) -> list[str]:
        return [f"map does not commute with face {i} of {cell}"
                for cell in self.source.all_cells() if cell.dim for i in range(cell.dim + 1)
                if self.eval(self.source.face(cell, i)) != face(self.target, self.mapping[cell], i)]

    def __repr__(self):
        return f"SimplicialMap({self.name or '?'})"


def identity_simplicial_map(X: FiniteSimplicialSet) -> SimplicialMap:
    return SimplicialMap(X, X, {c: Simplex((), c) for c in X.all_cells()}, name="identity")


@dataclass(frozen=True)
class SlabRule:
    """Where a source slab copy goes: into the matching copy of a target
    attachment chain (periodic), or onto fixed simplices of a finite target
    (collapse, ``target_attachment is None``)."""

    target_attachment: int | None
    cell_map: dict

    def __post_init__(self):
        object.__setattr__(self, "cell_map", dict(self.cell_map))


class PeriodicMap:
    """A simplicial map out of an exhaustion, described periodically.

    ``base_map`` sends the base's cells to target simplices; each source
    attachment chain carries a SlabRule applied to every copy.  Both are
    checked here (``_check_values``), and so is a value a rule gives an
    in-boundary cell: in every copy it must be the image of the cell the
    copy glues it to (``_images``).  The finite stage map at any depth is
    assembled (and face-checked) on demand.
    """

    def __init__(self, source: Exhaustion, target, base_map: dict,
                 slab_rules, name=None):
        self.source, self.target, self.name = source, target, name
        self.base_map = dict(base_map)
        self.slab_rules = tuple(slab_rules)
        if len(self.slab_rules) != len(source.attachments):
            raise SimplicialError("need one slab rule per attachment chain")
        fixed = target.base if self.target_is_exhaustion else target
        _check_values("base map", source.base.all_cells(), self.base_map, fixed)
        chains = range(len(target.gluings)) if self.target_is_exhaustion else ()
        self._slab_images, given = (), ()
        for a, (rule, g) in enumerate(zip(self.slab_rules, source.gluings)):
            at = rule.target_attachment
            if at is not None and (isinstance(at, bool) or not isinstance(at, int) or at not in chains):
                raise SimplicialError(f"slab rule {a} names no chain of the target: {at!r}")
            cells = [c for c in source.slab.all_cells() if c in rule.cell_map or c not in g.into]
            _check_values(f"slab rule {a}", cells, rule.cell_map, fixed if at is None else target.slab)
            self._slab_images += ([(c, rule.cell_map[c]) for c in g.added],)
            given += ([(c, rule.cell_map[c]) for c in cells],)
        walks = [X for X in (source, target) if isinstance(X, Exhaustion)]
        cycle = max((len(t) for X in walks for g in X.gluings for t in g.cycles.values()), default=0)
        self._images(1 + sum(X.longest for X in walks) + 2 * cycle, given)

    @property
    def target_is_exhaustion(self) -> bool:
        return isinstance(self.target, Exhaustion)

    def _images(self, depth: int, values) -> dict:
        """The stage map's values on the base and on copies 1..depth: the base
        map's, and in each copy the ``(slab cell, image)`` pairs of each
        chain's ``values``, the image moved into the copy for a periodic rule.
        A pair whose cell is glued to one with another value is refused.

        Construction passes the values given on in-boundary cells too, to
        depth 1 + l + 2m: l is the sum of the source's and the target's
        ``longest`` (0 for a finite target), m their longest cycle.  That
        decides every copy.  Walking back through the copies, the cell copy c
        glues an in-boundary cell to is a base cell until, at most the source's
        ``longest`` copies back, it is one that copy c - r adds (r fixed),
        whose image is the rule's value moved into copy c - r; or it is a
        cycle's base cell, periodic in c with period at most m.  A value moved
        into copy c behaves alike in the target.  So past copy l each side is a
        simplex over the cell that copy c - s adds of a fixed slab cell (s
        fixed), or one over the target's base (or a finite target), periodic
        in c with period at most max(m, 1).  Two sides of the first kind agree
        in every copy past l or in none, sides of different kinds in none, and
        sides of the second kind, of periods p and q, in every copy once they
        agree in p + q - gcd(p, q) <= 2m + 1 consecutive ones (Fine and Wilf).
        """
        mapping = dict(self.base_map)
        for a, rule in enumerate(self.slab_rules):
            for c in range(1, depth + 1):
                trans = self.source._translation(a, c)
                translate = (None if rule.target_attachment is None
                             else self.target._translation(rule.target_attachment, c))
                for cell, img in values[a]:
                    value = img if translate is None else Simplex(img.word, translate[img.core])
                    if mapping.setdefault(trans[cell], value) != value:
                        raise SimplicialError(
                            f"slab rule {a} sends {cell} in copy {c} to {value!r}, but it is glued "
                            f"to {trans[cell]}, which goes to {mapping[trans[cell]]!r}")
        return mapping

    def level_map(self, depth: int) -> SimplicialMap:
        """The finite stage map K_depth(source) -> stage-or-target, validated."""
        src_complex = self.source.truncate(depth).complex
        tgt_complex = (self.target.truncate(depth).complex if self.target_is_exhaustion
                       else self.target)
        return SimplicialMap(src_complex, tgt_complex, self._images(depth, self._slab_images),
                             name=f"{self.name or 'map'}[{depth}]")

    def __repr__(self):
        return f"PeriodicMap({self.name or '?'})"


def _check_values(where: str, cells, values: dict, target: FiniteSimplicialSet):
    """Refuse a description that leaves one of the cells without a value, or
    sends it to what is not a simplex of its dimension over a cell of target."""
    for cell in cells:
        img = values.get(cell)
        if img is None:
            raise SimplicialError(f"{where} is missing a value for {cell}")
        if not (isinstance(img, Simplex) and target.has_cell(img.core) and img.dim == cell.dim):
            raise SimplicialError(f"{where} sends {cell} to {img!r}, not a {cell.dim}-simplex of {target!r}")


def identity_periodic_map(X: Exhaustion) -> PeriodicMap:
    # target attachment indices must match source chains one-to-one
    rules = [SlabRule(a, {c: Simplex((), c) for c in X.slab.all_cells()})
             for a in range(len(X.attachments))]
    return PeriodicMap(X, X, {c: Simplex((), c) for c in X.base.all_cells()}, rules,
                       name="identity")


# --------------------------------------------------------------------------
# properness

@dataclass
class PropernessReport:
    ok: bool
    max_fiber: int | None = None
    witness: str | None = None
    notes: list[str] = field(default_factory=list)


def _fiber_counts(level: SimplicialMap) -> Counter:
    return Counter(level.mapping[cell].core for cell in level.source.all_cells())


def _infinite_fibers(f: PeriodicMap) -> set:
    """The target simplices that cells of infinitely many copies map to: a
    collapse rule sends every copy onto the same ones, a periodic rule copy
    c into copy c of its target chain, where only cells on its cycles recur."""
    fibers = set()
    for rule, images in zip(f.slab_rules, f._slab_images):
        if rule.target_attachment is None:
            fibers.update(img for _, img in images)
        else:
            cycles = f.target.gluings[rule.target_attachment].cycles
            fibers.update(Simplex(img.word, b) for _, img in images for b in cycles.get(img.core, ()))
    return fibers


def is_proper_map(f) -> PropernessReport:
    """Decide levelwise properness: finitely many nondegenerate source
    simplices over (a degeneracy of) each nondegenerate target simplex.

    Finite maps are proper with the fiber bound reported.  A periodic map is
    proper exactly when no target simplex takes cells of infinitely many
    copies (``_infinite_fibers``); the witness is the first such core in
    target order, with its fiber sizes at depths 1..8.
    """
    if isinstance(f, SimplicialMap):
        return PropernessReport(ok=True, max_fiber=max(_fiber_counts(f).values(), default=0))
    cores = {img.core for img in _infinite_fibers(f)}
    if not cores:
        return PropernessReport(ok=True, notes=["no simplex takes cells of infinitely many copies"])
    order = (f.target.base if f.target_is_exhaustion else f.target).all_cells()
    worst = next(y for y in order if y in cores)
    sizes = [_fiber_counts(f.level_map(d))[worst] for d in range(1, 9)]
    return PropernessReport(ok=False, witness=f"fiber over {worst.id!r} keeps growing: sizes {sizes}")


# --------------------------------------------------------------------------
# controlled families of simplices

@dataclass(frozen=True)
class FiniteFamily:
    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))


@dataclass(frozen=True)
class AllCellsFamily:
    """Every nondegenerate simplex, optionally of one dimension."""

    dim: int | None = None


@dataclass(frozen=True)
class PerSlabFamily:
    """The same selection of slab cells in every copy, plus base cells."""

    base_cells: tuple = ()
    slab_cells: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "base_cells", tuple(self.base_cells))
        object.__setattr__(self, "slab_cells", tuple(self.slab_cells))


@dataclass(frozen=True)
class DegeneracyTowerFamily:
    """All iterated degeneracies of one fixed simplex: an infinite family
    concentrated over a single core."""

    base: Simplex


def _glue_depth(X: Exhaustion, cell) -> int | None:
    """The first stage of an exhaustion that has the cell, or None if none
    has it: 0 for a base cell, and d for copy d (``Exhaustion._copy_of``)."""
    if X.base.has_cell(cell):
        return 0
    copy = X._copy_of(cell)
    return None if copy is None else copy[1]


def _has_cell(X, cell) -> bool:
    """Whether a finite complex, or a stage of an exhaustion, has the cell."""
    return X.has_cell(cell) if isinstance(X, FiniteSimplicialSet) else _glue_depth(X, cell) is not None


def family_is_controlled(X, family) -> bool:
    """Whether each vertex star meets only finitely many family members.

    A family naming a cell the space lacks (a finite complex has no slab),
    or a negative dimension, is refused.  Finite families always qualify,
    and so does every family on a finite complex but a degeneracy tower,
    which concentrates infinitely many members over its core's vertices.  On
    an exhaustion, all cells (or those of one dimension) and a per-slab
    selection are slab cells copied into every copy, controlled unless they
    crowd a star (``_crowding``)."""
    finite = isinstance(X, FiniteSimplicialSet)
    if isinstance(family, FiniteFamily):
        named = [(X, getattr(m, "core", m)) for m in family.members]
    elif isinstance(family, DegeneracyTowerFamily):
        named = [(X, getattr(family.base, "core", family.base))]
    elif isinstance(family, PerSlabFamily):
        named = ([(X if finite else X.base, c) for c in family.base_cells]
                 + [(None if finite else X.slab, c) for c in family.slab_cells])
    elif isinstance(family, AllCellsFamily):
        named = []
        if family.dim is not None and family.dim < 0:
            raise SimplicialError(f"negative dimension in {family!r}")
    else:
        raise SimplicialError(f"unknown family kind {type(family).__name__}")
    if not all(Y is not None and isinstance(c, Cell) and _has_cell(Y, c) for Y, c in named):
        raise SimplicialError(f"unknown cell in {family!r}")
    if finite or isinstance(family, (FiniteFamily, DegeneracyTowerFamily)):
        return not isinstance(family, DegeneracyTowerFamily)
    cells = (family.slab_cells if isinstance(family, PerSlabFamily)
             else [c for c in X.slab.all_cells() if family.dim in (None, c.dim)])
    return _crowding(X, [cells] * len(X.attachments)) is None


# --------------------------------------------------------------------------
# properness vs controlled-map conditions

@dataclass
class EquivalenceReport:
    proper_ok: bool
    proper_witness: str | None
    controlled_ok: bool
    controlled_witness: str | None
    agree: bool


def proper_controlled_equivalence(f) -> EquivalenceReport:
    """Compare levelwise properness against the controlled-map conditions.

    The controlled side takes the canonical generating family (all
    nondegenerate simplices, stagewise) and requires (1) its image family to
    be controlled in the target: collapse images form a finite set, and the
    image cores of each periodic rule, copied into its target chain, must not
    crowd a star (``_crowding``); and (2) the fibers over single simplices
    (``_infinite_fibers``) to be finite.  The sides are not independent:
    on a periodic map ``is_proper_map`` reads the same ``_infinite_fibers``,
    so ``agree`` can fail only through (1).  Item 4 of ROADMAP.md plans to
    decide them apart."""
    proper = is_proper_map(f)
    if isinstance(f, SimplicialMap):
        # finite complexes: the image family is finite, fibers are finite
        return EquivalenceReport(proper.ok, proper.witness, True, None, proper.ok is True)
    images = [set() for _ in f.target.attachments] if f.target_is_exhaustion else []
    for rule, slab_images in zip(f.slab_rules, f._slab_images):
        if rule.target_attachment is not None:
            images[rule.target_attachment].update(img.core for _, img in slab_images)
    crowding = _crowding(f.target, images) if images else None
    infinite = _infinite_fibers(f)
    if crowding is not None:
        controlled_ok = False
        controlled_witness = f"image family member counts keep growing ({crowding.witness})"
    elif infinite:
        controlled_ok, controlled_witness = False, f"restricted fibers are infinite over {min(infinite)!r}"
    else:
        controlled_ok, controlled_witness = True, None
    return EquivalenceReport(proper.ok, proper.witness, controlled_ok, controlled_witness,
                             agree=proper.ok == controlled_ok)


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
    """The boundary, read from the engine's columns (``sset._column``)."""
    X, out = chain.complex, {}
    below = X.cells(chain.degree - 1)
    for cell, a in chain.coeffs.items():
        for r, x in _column(X, cell).items():
            out[below[r]] = out.get(below[r], 0) + x * a
    return Chain(X, chain.degree - 1, out)


def coboundary(cochain: Cochain) -> Cochain:
    """The coboundary, from each cell's faces, not from the engine's columns:
    the adjointness of the two checks one reading against the other."""
    X, n = cochain.complex, cochain.degree + 1
    return Cochain(X, n, {cell: sum((-1 if i % 2 else 1) * cochain(X.face(cell, i))
                                    for i in range(n + 1)) for cell in X.cells(n)})


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
        if img.is_nondegenerate:
            out[img.core] = out.get(img.core, 0) + a
    return Chain(f.target, chain.degree, out)


def _pulled(f: SimplicialMap, cochain: Cochain) -> dict:
    """The pullback's values on the source cells, zeros included."""
    return {cell: cochain(f.eval(f.source.simplex(cell))) for cell in f.source.cells(cochain.degree)}


def pullback(f: SimplicialMap, cochain: Cochain) -> Cochain:
    """Dual of the pushforward.  Total on finite complexes."""
    if cochain.complex is not f.target:
        raise SimplicialError("cochain does not live on the map's target")
    return Cochain(f.source, cochain.degree, _pulled(f, cochain))


def pullback_periodic(f, cochain: Cochain, depth: int):
    """Pullback of a compactly supported cochain along a periodic map.

    Requires the map to be proper — otherwise the preimage support would be
    infinite and the result would not be compactly supported; raises
    ControlError in that case.  Copy c lands in target cells glued at most
    ``longest`` copies earlier (``Exhaustion.longest``), so the pullback is
    read once, on source stage max(depth, s + longest), s the deepest target
    stage in the support.
    """
    if not isinstance(f, PeriodicMap):
        raise SimplicialError("pullback_periodic needs a periodic map")
    proper = is_proper_map(f)
    if not proper.ok:
        from .ctlset import ControlError
        raise ControlError("pullback of compactly supported cochains needs a proper map: "
                           + (proper.witness or "not proper"))
    stage = depth
    if f.target_is_exhaustion:
        for cell in cochain.values:
            glued = _glue_depth(f.target, cell)
            if glued is None:
                raise SimplicialError("cochain does not live on the map's target")
            stage = max(stage, glued + f.target.longest)
    level = f.level_map(stage)
    return Cochain(level.source, cochain.degree, _pulled(level, cochain))


# --------------------------------------------------------------------------
# induced maps on homology

def induced_on_homology(f: SimplicialMap, degree: int):
    """The matrix of H_degree(f) between the normalized presentations,
    returned as (source_presentation, target_presentation, image_coords).
    A cell onto a degenerate simplex maps to zero.  Loads ``chainalg``."""
    from .chainalg import StageComplex, _cell_map, _check_arguments, _push

    _check_arguments(degree=degree)
    src, tgt = StageComplex(f.source, frozenset()), StageComplex(f.target, frozenset())
    ps, pt = (stage.present([degree], False)[degree] for stage in (src, tgt))
    images = (f.eval(f.source.simplex(c)) for c in src.basis(degree))
    cells = _cell_map([img.core if img.is_nondegenerate else None for img in images],
                      tgt.basis(degree))
    return ps, pt, [pt.reduce(_push(cells, len(tgt.basis(degree)), g)) for g in ps.generators]
