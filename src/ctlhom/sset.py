"""Simplicial sets presented by their nondegenerate simplices, plus the
periodic exhaustion presentation for locally finite infinite complexes.

Every simplex is kept in degeneracy normal form: a strictly decreasing word
of degeneracy indices applied to a nondegenerate cell.  The contravariant
action of an arbitrary ordinal map is computed by composing with the word's
surjection, factoring, walking the injection through stored face assignments,
and re-normalizing — so face/degeneracy arithmetic never leaves normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from . import delta
from .delta import MonotoneMap


class SimplicialError(ValueError):
    """Dimension mismatches, unknown simplices, invalid operator indices."""


class PresentationError(SimplicialError):
    """Structurally invalid complex or exhaustion presentation."""


# --------------------------------------------------------------------------
# simplices

@dataclass(frozen=True, order=True)
class Cell:
    """A nondegenerate simplex: dimension plus an identifier unique in it."""

    dim: int
    id: str

    def __post_init__(self):
        if self.dim < 0:
            raise SimplicialError("cell dimension must be non-negative")

    def __repr__(self):
        return f"Cell({self.dim}, {self.id!r})"


@dataclass(frozen=True)
class Simplex:
    """Degeneracy normal form: strictly decreasing word over a cell.

    The word lists degeneracy operator indices outermost first; the total
    dimension is ``core.dim + len(word)``.  The strictly-decreasing shape is
    the unique normal form, so equality of simplices is plain field equality.
    """

    word: tuple[int, ...]
    core: Cell

    def __post_init__(self):
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        if word:
            if any(w < 0 for w in word):
                raise SimplicialError(f"negative degeneracy index in {word}")
            if any(a <= b for a, b in zip(word, word[1:])):
                raise SimplicialError(f"degeneracy word {word} is not strictly decreasing")
            if word[0] > self.core.dim + len(word) - 1:
                raise SimplicialError(
                    f"degeneracy word {word} out of range over a {self.core.dim}-cell"
                )

    @property
    def dim(self) -> int:
        return self.core.dim + len(self.word)

    @property
    def is_nondegenerate(self) -> bool:
        return not self.word

    def __repr__(self):
        if not self.word:
            return f"Simplex({self.core.id!r})"
        return f"Simplex(s{list(self.word)} {self.core.id!r})"


def is_nondegenerate(x: Simplex) -> bool:
    return x.is_nondegenerate


@lru_cache(maxsize=4096)
def _word_surjection(word: tuple[int, ...], dim: int) -> MonotoneMap:
    """The ordinal surjection dim -> dim - len(word) encoded by a strictly
    decreasing degeneracy word.  Memoised: MonotoneMap is frozen, and the
    words met in practice are few."""
    return delta.from_codegeneracy_word(tuple(reversed(word)), dim)


def _degeneracy_word(f: MonotoneMap) -> tuple[int, ...]:
    """Simplex-side degeneracy word (strictly decreasing) of a surjection."""
    return tuple(reversed(delta.codegeneracy_word(f)))


# --------------------------------------------------------------------------
# finite simplicial sets

class FiniteSimplicialSet:
    """Finitely many nondegenerate simplices with face assignments.

    ``cells`` maps dimension -> ordered ids; ``faces`` maps (dim, id) -> the
    list of d_0..d_n values as Simplex normal forms over lower cells.  Each
    cell is stored once, as a Cell: a tuple of cells per dimension, and one
    dict from every cell to its faces (vertices map to ``()``).  The
    simplicial identities are verified on construction.
    """

    def __init__(self, cells, faces, name=None):
        self.name = name
        ids = {}
        for n in sorted(cells):
            ids[n] = tuple(cells[n])
            if len(set(ids[n])) != len(ids[n]):
                raise PresentationError(f"duplicate cell ids in dimension {n}")
        self._cells = {n: tuple(Cell(n, i) for i in ns) for n, ns in ids.items() if ns}
        self._faces = dict.fromkeys(self.all_cells(), ())
        for cell in self.all_cells():
            if cell.dim:
                key = (cell.dim, cell.id)
                if key not in faces:
                    raise PresentationError(f"missing face assignments for {cell.dim}-cell {cell.id!r}")
                self._set_faces(cell, faces[key])
        self._vertex_closure = {}
        self._stars = None
        problems = self.identity_violations()
        if problems:
            raise PresentationError("; ".join(problems[:5]))

    def _set_faces(self, cell: Cell, faces):
        """Check the faces of a cell of positive dimension, then store them."""
        n, i = cell.dim, cell.id
        fs = tuple(faces)
        if len(fs) != n + 1:
            raise PresentationError(
                f"{n}-cell {i!r} needs {n + 1} faces, got {len(fs)}"
            )
        for k, fv in enumerate(fs):
            if not isinstance(fv, Simplex):
                raise PresentationError(f"face {k} of {i!r} is not a simplex")
            if fv.dim != n - 1:
                raise PresentationError(
                    f"face {k} of {n}-cell {i!r} has dimension {fv.dim}"
                )
            if fv.core not in self._faces:
                raise PresentationError(
                    f"face {k} of {i!r} references unknown cell {fv.core}"
                )
        self._faces[cell] = fs

    def _glued(self, added: dict, name) -> "FiniteSimplicialSet":
        """This complex plus new cells: ``added`` maps each new Cell, in
        order, to its faces.  Each face is checked as in the constructor; the
        simplicial identities are not rechecked (the pieces glued in, and
        this complex, already satisfy them)."""
        X = object.__new__(FiniteSimplicialSet)
        X.name = name
        X._faces = dict(self._faces)
        by_dim = {}
        for cell in added:
            by_dim.setdefault(cell.dim, []).append(cell)
        cells = dict(self._cells)
        for n, new in sorted(by_dim.items()):
            if any(c in X._faces for c in new):
                raise PresentationError(f"duplicate cell ids in dimension {n}")
            X._faces.update(dict.fromkeys(new, ()))
            cells[n] = cells.get(n, ()) + tuple(new)
        X._cells = dict(sorted(cells.items()))
        for cell, faces in added.items():
            if cell.dim:
                X._set_faces(cell, faces)
        X._vertex_closure = {}
        X._stars = None
        return X

    # -- accessors ---------------------------------------------------------

    def dims(self):
        return tuple(self._cells)

    @property
    def top_dim(self) -> int:
        return max(self._cells, default=-1)

    def cells(self, n: int) -> tuple:
        return self._cells.get(n, ())

    def all_cells(self):
        for cells in self._cells.values():
            yield from cells

    def cell_count(self) -> int:
        return len(self._faces)

    def has_cell(self, cell: Cell) -> bool:
        return cell in self._faces

    def face(self, cell: Cell, i: int) -> Simplex:
        """Stored face assignment d_i of a nondegenerate simplex."""
        faces = self._faces.get(cell)
        if faces is None:
            raise SimplicialError(f"unknown cell {cell}")
        if cell.dim == 0:
            raise SimplicialError("0-simplices have no faces")
        if not 0 <= i <= cell.dim:
            raise SimplicialError(f"face index {i} outside 0..{cell.dim}")
        return faces[i]

    def simplex(self, cell: Cell) -> Simplex:
        if cell not in self._faces:
            raise SimplicialError(f"unknown cell {cell}")
        return Simplex((), cell)

    # -- derived structure ---------------------------------------------------

    def vertices_of(self, cell: Cell) -> frozenset:
        """The 0-cells in the iterated face closure of a cell."""
        cached = self._vertex_closure.get(cell)
        if cached is not None:
            return cached
        if cell.dim == 0:
            result = frozenset((cell,))
        else:
            acc = set()
            for i in range(cell.dim + 1):
                acc |= self.vertices_of(self.face(cell, i).core)
            result = frozenset(acc)
        self._vertex_closure[cell] = result
        return result

    def star(self, vertex: Cell) -> tuple:
        """All nondegenerate simplices whose closure contains the vertex, in
        ``all_cells`` order.

        Read from a vertex -> star index built by one pass over the cells on
        the first call (complexes are not mutated after construction).
        """
        if vertex.dim != 0:
            raise SimplicialError("stars are taken at 0-simplices")
        if self._stars is None:
            stars = {}
            for x in self.all_cells():
                for v in self.vertices_of(x):
                    stars.setdefault(v, []).append(x)
            self._stars = {v: tuple(xs) for v, xs in stars.items()}
        return self._stars.get(vertex, ())

    def identity_violations(self) -> list[str]:
        """Simplicial identity failures d_i d_j != d_{j-1} d_i, as messages."""
        bad = []
        for cell in self.all_cells():
            n = cell.dim
            if n < 2:
                continue
            for j in range(1, n + 1):
                for i in range(j):
                    lhs = face(self, self.face(cell, j), i)
                    rhs = face(self, self.face(cell, i), j - 1)
                    if lhs != rhs:
                        bad.append(
                            f"d_{i} d_{j} != d_{j - 1} d_{i} at {n}-cell {cell.id!r}"
                        )
        return bad

    def __repr__(self):
        counts = ", ".join(f"{len(v)}x{k}" for k, v in self._cells.items())
        label = self.name or "complex"
        return f"FiniteSimplicialSet({label}: {counts})"


# --------------------------------------------------------------------------
# operators in normal form

def apply_ordinal_map(X, x: Simplex, f: MonotoneMap) -> Simplex:
    """The contravariant action of an ordinal map f on a simplex of X.

    Requires ``f.target_dim == x.dim``; the result has dimension
    ``f.source_dim``.  Works for any monotone f, so faces and degeneracies
    are the special cases of cofaces and codegeneracies.
    """
    if f.target_dim != x.dim:
        raise SimplicialError(
            f"ordinal map into dimension {f.target_dim} applied to a {x.dim}-simplex"
        )
    epi, faces = _factor_action(x.word, f)
    y = Simplex((), x.core)
    for i in faces:
        y = _face_step(X, y, i)
    if epi is None:
        return y
    return Simplex(_degenerate_by(y.word, epi), y.core)


@lru_cache(maxsize=4096)
def _factor_action(word: tuple[int, ...], f: MonotoneMap):
    """Factor f after the surjection of ``word`` (a degeneracy word in
    dimension f.target_dim): the surjection part, None when it is the
    identity, and the coface word of the injection part."""
    composite = delta.compose(_word_surjection(word, f.target_dim), f)
    epi, mono = delta.epi_mono_factor(composite)
    return (None if epi.is_identity else epi), delta.coface_word(mono)


@lru_cache(maxsize=4096)
def _degenerate_by(word: tuple[int, ...], epi: MonotoneMap) -> tuple[int, ...]:
    """The degeneracy word of epi followed by the surjection of ``word``."""
    total = delta.compose(_word_surjection(word, epi.target_dim), epi)
    return _degeneracy_word(total)


def _face_step(X, y: Simplex, i: int) -> Simplex:
    """One face operator applied to a possibly degenerate simplex."""
    if y.is_nondegenerate:
        return X.face(y.core, i)
    return apply_ordinal_map(X, y, delta.coface(y.dim - 1, i))


def face(X, x, i: int) -> Simplex:
    """The i-th face of a simplex (Cell or Simplex) of X."""
    if isinstance(x, Cell):
        x = X.simplex(x)
    if x.dim == 0:
        raise SimplicialError("0-simplices have no faces")
    if not 0 <= i <= x.dim:
        raise SimplicialError(f"face index {i} outside 0..{x.dim}")
    if not x.word:
        # the stored face; the general action below returns the same simplex
        return X.face(x.core, i)
    return apply_ordinal_map(X, x, delta.coface(x.dim - 1, i))


def degeneracy(X, x, j: int) -> Simplex:
    """The j-th degeneracy of a simplex (Cell or Simplex) of X."""
    if isinstance(x, Cell):
        x = X.simplex(x)
    if not 0 <= j <= x.dim:
        raise SimplicialError(f"degeneracy index {j} outside 0..{x.dim}")
    return apply_ordinal_map(X, x, delta.codegeneracy(x.dim, j))


def all_simplices(X: FiniteSimplicialSet, n: int) -> list[Simplex]:
    """Every n-simplex of a finite complex, degenerate ones included.

    Enumerated as (word, cell) pairs: the words from an n-dimensional total
    to a c-dimensional core are the strictly decreasing sequences over
    {0..n-1} of length n - c.
    """
    out = []
    for c in sorted(X.dims()):
        if c > n:
            break
        k = n - c
        for cell in X.cells(c):
            for subset in combinations(range(n), k):
                out.append(Simplex(tuple(sorted(subset, reverse=True)), cell))
    return out


def adjacent(X, x: Simplex, y: Simplex) -> bool:
    """Whether two simplices share a 0-simplex in their closures.

    This is the face-closure reduction of adjacency; the law suite checks it
    against the definition through pairs of ordinal maps.
    """
    return bool(X.vertices_of(x.core) & X.vertices_of(y.core))


def facet_complex(facets, name=None) -> FiniteSimplicialSet:
    """The simplicial complex generated by facets (iterables of vertex
    labels).  Cells are all nonempty subsets, ordered by the sort of their
    labels; ids join the labels with dots."""
    facets = [tuple(sorted(set(f))) for f in facets]
    subsets = set()
    for f in facets:
        if not f:
            raise PresentationError("empty facet")
        for k in range(1, len(f) + 1):
            subsets.update(combinations(f, k))
    cells = {}
    faces = {}
    for verts in sorted(subsets, key=lambda s: (len(s), s)):
        dim = len(verts) - 1
        cid = ".".join(str(v) for v in verts)
        cells.setdefault(dim, []).append(cid)
        if dim > 0:
            faces[(dim, cid)] = tuple(
                Simplex((), Cell(dim - 1, ".".join(str(v) for j, v in enumerate(verts) if j != i)))
                for i in range(dim + 1)
            )
    return FiniteSimplicialSet(cells, faces, name=name)


def standard_simplex(n: int) -> FiniteSimplicialSet:
    """The n-simplex: nondegenerate k-cells are the (k+1)-subsets of {0..n},
    with ids joining the vertices by dots."""
    if n < 0:
        raise SimplicialError("dimension must be non-negative")
    return facet_complex([range(n + 1)], name=f"delta({n})")


# --------------------------------------------------------------------------
# exhaustions: base + repeated slab

@dataclass(frozen=True)
class Attachment:
    """One gluing chain: where the slab meets the base (copy 1), where each
    new copy meets the previous one (in/out, positional correspondence)."""

    base_ids: tuple
    slab_in_ids: tuple
    slab_out_ids: tuple

    def __post_init__(self):
        object.__setattr__(self, "base_ids", tuple(self.base_ids))
        object.__setattr__(self, "slab_in_ids", tuple(self.slab_in_ids))
        object.__setattr__(self, "slab_out_ids", tuple(self.slab_out_ids))
        if not (
            len(self.base_ids) == len(self.slab_in_ids) == len(self.slab_out_ids)
        ):
            raise PresentationError("attachment id lists must have equal length")
        for ids in (self.base_ids, self.slab_in_ids, self.slab_out_ids):
            if len(set(ids)) != len(ids):
                raise PresentationError("attachment id lists must be injective")


@dataclass
class Truncation:
    """A finite stage of an exhaustion, with gluing bookkeeping.

    ``translations[(a, c)]`` maps slab cells to their cells in the stage for
    copy c of attachment chain a; ``frontier_chains`` is where copy depth+1
    would attach, per chain (``frontier`` is their deduplicated union);
    ``added`` lists the cells new at this depth, chain by chain in slab order
    (every base cell at depth 0).
    """

    depth: int
    complex: FiniteSimplicialSet
    translations: dict
    frontier_chains: list
    added: tuple

    @property
    def frontier(self) -> tuple:
        return tuple(dict.fromkeys(c for chain in self.frontier_chains for c in chain))


class Exhaustion:
    """An increasing union of finite complexes: a base with periodic slabs.

    Stage 0 is the base; stage i+1 glues one more copy of the slab onto each
    attachment chain, identifying the copy's in-boundary with the previous
    out-boundary (the base boundary for the first copy).
    """

    def __init__(self, base: FiniteSimplicialSet, slab: FiniteSimplicialSet,
                 attachments, name=None):
        self.name = name
        self.base = base
        self.slab = slab
        self.attachments = tuple(attachments)
        if not self.attachments:
            raise PresentationError("an exhaustion needs at least one attachment")
        self._base_lookup = _unique_id_lookup(base, "base")
        self._slab_lookup = _unique_id_lookup(slab, "slab")
        self._resolved = []
        for a, att in enumerate(self.attachments):
            base_cells = tuple(self._resolve(self._base_lookup, i, f"base_ids[{a}]") for i in att.base_ids)
            into = tuple(self._resolve(self._slab_lookup, i, f"slab_in_ids[{a}]") for i in att.slab_in_ids)
            out = tuple(self._resolve(self._slab_lookup, i, f"slab_out_ids[{a}]") for i in att.slab_out_ids)
            _check_subcomplex(base, base_cells, f"attachment {a} base boundary")
            _check_subcomplex(slab, into, f"attachment {a} slab in-boundary")
            _check_subcomplex(slab, out, f"attachment {a} slab out-boundary")
            _check_gluing_iso(base, base_cells, slab, into, f"attachment {a} base gluing")
            _check_gluing_iso(slab, out, slab, into, f"attachment {a} slab gluing")
            self._resolved.append((base_cells, into, out))
        self._stages = [Truncation(
            depth=0,
            complex=base._glued({}, self._stage_name(0)),
            translations={},
            frontier_chains=[list(r[0]) for r in self._resolved],
            added=tuple(base.all_cells()),
        )]

    @staticmethod
    def _resolve(lookup, cid, where):
        cell = lookup.get(cid)
        if cell is None:
            raise PresentationError(f"{where}: unknown cell id {cid!r}")
        return cell

    def _stage_name(self, depth: int) -> str:
        return f"{self.name or 'exhaustion'}[{depth}]"

    def truncate(self, depth: int) -> Truncation:
        """The finite stage at the given depth.  Each stage is built once, by
        gluing one slab copy per chain onto the stage before it, so stages
        nest by id."""
        if depth < 0:
            raise SimplicialError("depth must be non-negative")
        for d in range(len(self._stages), depth + 1):
            prev = self._stages[-1]
            translations = dict(prev.translations)
            frontier_chains = []
            added = {}
            for a, (_, into, out) in enumerate(self._resolved):
                trans = dict(zip(into, prev.frontier_chains[a]))
                for cell in self.slab.all_cells():
                    if cell not in trans:
                        new = trans[cell] = Cell(cell.dim, f"a{a}c{d}.{cell.id}")
                        added[new] = tuple(Simplex(fv.word, trans[fv.core])
                                           for fv in self.slab._faces[cell])
                translations[(a, d)] = trans
                frontier_chains.append([trans[c] for c in out])
            self._stages.append(Truncation(
                depth=d,
                complex=prev.complex._glued(added, self._stage_name(d)),
                translations=translations,
                frontier_chains=frontier_chains,
                added=tuple(added),
            ))
        return self._stages[depth]

    def __repr__(self):
        return f"Exhaustion({self.name or '?'}: base {self.base!r}, {len(self.attachments)} chain(s))"


def _unique_id_lookup(X: FiniteSimplicialSet, label: str) -> dict:
    lookup = {}
    for cell in X.all_cells():
        if cell.id in lookup:
            raise PresentationError(
                f"{label} complex reuses id {cell.id!r} across dimensions; "
                "attachment ids must be unambiguous"
            )
        lookup[cell.id] = cell
    return lookup


def _check_subcomplex(X: FiniteSimplicialSet, cells, where: str):
    members = set(cells)
    for cell in cells:
        if not X.has_cell(cell):
            raise PresentationError(f"{where}: {cell} is not in the complex")
        if cell.dim == 0:
            continue
        for i in range(cell.dim + 1):
            core = X.face(cell, i).core
            if core not in members:
                raise PresentationError(
                    f"{where}: not face-closed ({cell.id!r} has face {core.id!r} outside)"
                )


def _check_gluing_iso(X, x_cells, Y, y_cells, where: str):
    """The positional map x_cells[k] -> y_cells[k] must be an isomorphism of
    subcomplexes: dimension-preserving and commuting with face assignments."""
    pair = {}
    for xc, yc in zip(x_cells, y_cells):
        if xc.dim != yc.dim:
            raise PresentationError(
                f"{where}: {xc.id!r} and {yc.id!r} differ in dimension"
            )
        pair[xc] = yc
    for xc, yc in pair.items():
        if xc.dim == 0:
            continue
        for i in range(xc.dim + 1):
            fx = X.face(xc, i)
            fy = Y.face(yc, i)
            if fy.word != fx.word or pair.get(fx.core) != fy.core:
                raise PresentationError(
                    f"{where}: gluing does not commute with face {i} of {xc.id!r}"
                )


# --------------------------------------------------------------------------
# local finiteness

@dataclass
class LocalFinitenessReport:
    ok: bool
    max_star: int | None = None
    witness: str | None = None
    star_sizes: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def is_locally_finite(X, probe_depth: int = 3) -> LocalFinitenessReport:
    """Certify that every vertex is adjacent to finitely many nondegenerate
    simplices.

    Finite complexes are locally finite outright.  For exhaustions the
    certificate compares vertex stars across consecutive stages: every vertex
    existing at stage i must have equal stars at stages i+1 and i+2 (one step
    of settling is allowed for the slab that attaches at the frontier).  This
    is sound for the periodic presentations expressible here; a vertex whose
    star keeps growing is reported as the witness.  A negative
    ``probe_depth`` compares no stages and is refused.
    """
    if probe_depth < 0:
        raise SimplicialError("probe_depth must be at least 0")
    if isinstance(X, FiniteSimplicialSet):
        sizes = {v.id: len(X.star(v)) for v in X.cells(0)}
        return LocalFinitenessReport(
            ok=True,
            max_star=max(sizes.values(), default=0),
            star_sizes=sizes,
            notes=["finite complex: every star is finite"],
        )
    stages = [X.truncate(i) for i in range(probe_depth + 3)]
    for i in range(probe_depth + 1):
        # stages nest with unchanged faces, so a star grows from stage i+1
        # to i+2 by exactly the added cells whose closure holds the vertex
        after = stages[i + 2]
        gained = {}
        for c in after.added:
            for v in after.complex.vertices_of(c):
                gained.setdefault(v, []).append(c.id)
        for v in stages[i].complex.cells(0):
            if v in gained:
                grown = sorted(gained[v])
                return LocalFinitenessReport(
                    ok=False,
                    witness=f"vertex {v.id!r} keeps gaining simplices (e.g. {grown[:3]})",
                    notes=[f"star grew between stages {i + 1} and {i + 2}"],
                )
    deepest = stages[probe_depth + 2].complex
    sizes = {v.id: len(deepest.star(v)) for v in stages[probe_depth].complex.cells(0)}
    return LocalFinitenessReport(
        ok=True,
        max_star=max(sizes.values(), default=0),
        star_sizes=sizes,
        notes=[f"stars stabilized across stages 1..{probe_depth + 2}"],
    )


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
        self.source = source
        self.target = target
        self.name = name
        self.mapping = dict(mapping)
        for cell in source.all_cells():
            img = self.mapping.get(cell)
            if img is None:
                raise SimplicialError(f"map is missing a value for {cell}")
            if not isinstance(img, Simplex) or not target.has_cell(img.core):
                raise SimplicialError(f"image of {cell} is not a target simplex")
            if img.dim != cell.dim:
                raise SimplicialError(
                    f"image of {cell} has dimension {img.dim}, expected {cell.dim}"
                )
        problems = self.face_violations()
        if problems:
            raise SimplicialError("; ".join(problems[:5]))

    def eval(self, x: Simplex) -> Simplex:
        img = self.mapping[x.core]
        if not x.word:
            return img
        return apply_ordinal_map(self.target, img, _word_surjection(x.word, x.dim))

    def face_violations(self) -> list[str]:
        bad = []
        for cell in self.source.all_cells():
            if cell.dim == 0:
                continue
            img = self.mapping[cell]
            for i in range(cell.dim + 1):
                lhs = self.eval(self.source.face(cell, i))
                rhs = face(self.target, img, i)
                if lhs != rhs:
                    bad.append(f"map does not commute with face {i} of {cell}")
        return bad

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
    attachment chain carries a SlabRule applied to every copy.  The finite
    stage map at any depth is assembled (and face-checked) on demand.
    """

    def __init__(self, source: Exhaustion, target, base_map: dict,
                 slab_rules, name=None):
        self.source = source
        self.target = target
        self.base_map = dict(base_map)
        self.slab_rules = tuple(slab_rules)
        self.name = name
        if len(self.slab_rules) != len(source.attachments):
            raise SimplicialError("need one slab rule per attachment chain")
        self._levels = {}

    @property
    def target_is_exhaustion(self) -> bool:
        return isinstance(self.target, Exhaustion)

    def level_map(self, depth: int) -> SimplicialMap:
        """The finite stage map K_depth(source) -> stage-or-target, validated."""
        if depth in self._levels:
            return self._levels[depth]
        src_stage = self.source.truncate(depth)
        if self.target_is_exhaustion:
            tgt_stage = self.target.truncate(depth)
            tgt_complex = tgt_stage.complex
        else:
            tgt_stage = None
            tgt_complex = self.target
        mapping = dict(self.base_map)
        for a, rule in enumerate(self.slab_rules):
            for c in range(1, depth + 1):
                trans = src_stage.translations[(a, c)]
                if rule.target_attachment is None:
                    translate = None
                else:
                    translate = tgt_stage.translations[(rule.target_attachment, c)]
                for slab_cell, spot in trans.items():
                    if spot in mapping:
                        continue  # shared boundary cell, already assigned
                    img = rule.cell_map.get(slab_cell)
                    if img is None:
                        raise SimplicialError(
                            f"slab rule {a} is missing a value for {slab_cell}"
                        )
                    if translate is not None:
                        img = Simplex(img.word, translate[img.core])
                    mapping[spot] = img
        level = SimplicialMap(
            src_stage.complex, tgt_complex, mapping,
            name=f"{self.name or 'map'}[{depth}]",
        )
        self._levels[depth] = level
        return level

    def __repr__(self):
        return f"PeriodicMap({self.name or '?'})"


def identity_periodic_map(X: Exhaustion) -> PeriodicMap:
    # target attachment indices must match source chains one-to-one
    rules = [
        SlabRule(target_attachment=a,
                 cell_map={c: Simplex((), c) for c in X.slab.all_cells()})
        for a in range(len(X.attachments))
    ]
    return PeriodicMap(
        X, X,
        base_map={c: Simplex((), c) for c in X.base.all_cells()},
        slab_rules=rules,
        name="identity",
    )


# --------------------------------------------------------------------------
# properness

@dataclass
class PropernessReport:
    ok: bool
    max_fiber: int | None = None
    witness: str | None = None
    notes: list[str] = field(default_factory=list)


def _fiber_counts(level: SimplicialMap) -> dict:
    counts = {}
    for cell in level.source.all_cells():
        core = level.mapping[cell].core
        counts[core] = counts.get(core, 0) + 1
    return counts


def is_proper_map(f, max_depth: int = 8, window: int = 2) -> PropernessReport:
    """Check levelwise properness: finitely many nondegenerate source
    simplices over (a degeneracy of) each nondegenerate target simplex.

    Finite maps are proper with the fiber bound reported.  For periodic maps
    the fibers are counted at successive stages; a fiber may still fill in
    one stage after its target simplex appears (the next copy attaches), so
    growth is only flagged at simplices present two stages back.  The map is
    certified proper once no such fiber grows for ``window`` consecutive
    stages, and reported non-proper with the growing fiber as witness
    otherwise.  Sound for periodic presentations.  A probe that ends before
    either happens (``max_depth`` too small for the window) is undetermined
    and raises SimplicialError rather than certifying anything.
    """
    if window < 1:
        raise SimplicialError("window must be at least 1")
    if isinstance(f, SimplicialMap):
        counts = _fiber_counts(f)
        return PropernessReport(ok=True, max_fiber=max(counts.values(), default=0))
    counts_history = []
    targets = []
    quiet = 0
    history = {}
    for depth in range(max_depth + 1):
        level = f.level_map(depth)
        counts = _fiber_counts(level)
        counts_history.append(counts)
        targets.append(level.target)
        if depth >= 2:
            # in cell order, so that equally long histories tie the same way
            grew = {
                y: (counts_history[depth - 1].get(y, 0), counts.get(y, 0))
                for y in targets[depth - 2].all_cells()
                if counts.get(y, 0) > counts_history[depth - 1].get(y, 0)
            }
            for y, sizes in grew.items():
                history.setdefault(y, []).append(sizes)
            quiet = 0 if grew else quiet + 1
            if quiet >= window:
                return PropernessReport(
                    ok=True,
                    max_fiber=max(counts.values(), default=0),
                    notes=[f"fibers settled for {window} stages by depth {depth}"],
                )
    worst = max(history, key=lambda y: len(history[y]), default=None)
    if worst is None:
        raise SimplicialError(
            f"properness undetermined within max_depth {max_depth}: fibers "
            f"neither settled for {window} stages nor grew"
        )
    sizes = [a for a, _ in history[worst]] + [history[worst][-1][1]]
    return PropernessReport(
        ok=False,
        witness=f"fiber over {worst.id!r} keeps growing: sizes {sizes}",
    )


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


def family_is_controlled(X, family) -> bool:
    """Whether each vertex star meets only finitely many family members.

    Finite families always qualify.  The full nondegenerate family (and any
    per-slab periodic selection) is controlled exactly when the complex is
    locally finite: each vertex sees finitely many copies, each contributing
    finitely many members.  A degeneracy tower concentrates infinitely many
    members over its core's vertices and is never controlled on a nonempty
    complex.
    """
    if isinstance(family, FiniteFamily):
        return True
    if isinstance(family, DegeneracyTowerFamily):
        return False
    if isinstance(family, (AllCellsFamily, PerSlabFamily)):
        if isinstance(X, FiniteSimplicialSet):
            return True
        return is_locally_finite(X).ok
    raise SimplicialError(f"unknown family kind {type(family).__name__}")


# --------------------------------------------------------------------------
# properness vs controlled-map conditions

@dataclass
class EquivalenceReport:
    proper_ok: bool
    proper_witness: str | None
    controlled_ok: bool
    controlled_witness: str | None
    agree: bool


def proper_controlled_equivalence(f, max_depth: int = 8, window: int = 2) -> EquivalenceReport:
    """Compare levelwise properness against the controlled-map conditions.

    The controlled side takes the canonical generating family (all
    nondegenerate simplices, stagewise) and requires (1) its image family to
    be controlled in the target — per-vertex member counts must settle — and
    (2) fibers over single simplices restricted to the family to be finite.
    The two sides must agree on every fixture; both reports carry witnesses.
    """
    proper = is_proper_map(f, max_depth=max_depth, window=window)

    if isinstance(f, SimplicialMap):
        # finite complexes: the image family is finite, fibers are finite
        return EquivalenceReport(
            proper_ok=proper.ok,
            proper_witness=proper.witness,
            controlled_ok=True,
            controlled_witness=None,
            agree=proper.ok is True,
        )

    # image family controlledness: count distinct image members per target
    # vertex across stages; counts at a vertex may settle one stage after
    # the vertex appears (the next copy still attaches to it), so compare
    # with that lag, like the star-stabilization certificate
    controlled_ok = True
    controlled_witness = None
    counts_history = []
    vertex_history = []
    quiet = 0
    settled = False
    for depth in range(max_depth + 1):
        level = f.level_map(depth)
        members = {level.eval(level.source.simplex(c)) for c in level.source.all_cells()}
        counts = {}
        for m in members:
            for v in level.target.vertices_of(m.core):
                counts[v] = counts.get(v, 0) + 1
        counts_history.append(counts)
        vertex_history.append(level.target.cells(0))
        if depth >= 2:
            grew = [
                v for v in vertex_history[depth - 2]
                if counts.get(v, 0) > counts_history[depth - 1].get(v, 0)
            ]
            quiet = 0 if grew else quiet + 1
            if quiet >= window:
                settled = True
                break
    if not settled:
        controlled_ok = False
        controlled_witness = "image family member counts keep growing at some vertex"
    if controlled_ok and not proper.ok:
        # condition (2): fibers over the canonical family must be finite,
        # which is exactly the properness fiber check
        controlled_ok = False
        controlled_witness = f"restricted fibers are infinite ({proper.witness})"
    return EquivalenceReport(
        proper_ok=proper.ok,
        proper_witness=proper.witness,
        controlled_ok=controlled_ok,
        controlled_witness=controlled_witness,
        agree=proper.ok == controlled_ok,
    )
