"""Simplicial sets presented by their nondegenerate simplices, plus the
periodic exhaustion presentation for locally finite infinite complexes.

Every simplex is kept in degeneracy normal form: a strictly decreasing word
of degeneracy indices applied to a nondegenerate cell.  The contravariant
action of an arbitrary ordinal map is computed by composing with the word's
surjection, factoring, walking the injection through stored face assignments,
and re-normalizing — so face/degeneracy arithmetic never leaves normal form.
Local finiteness is decided here; maps, properness and controlled families
are in ``maps``, which imports this module and which no theory loads.  Only
this module reads a complex's tables (``boundary_columns``,
``Exhaustion._copy_of``) and resolves its chains (``Exhaustion.gluings``).
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, count
from operator import gt

from . import delta
from .delta import MonotoneMap


class SimplicialError(ValueError):
    """Dimension mismatches, unknown simplices, invalid operator indices."""


class PresentationError(SimplicialError):
    """Structurally invalid complex or exhaustion presentation."""


# --------------------------------------------------------------------------
# simplices

class Cell(namedtuple("Cell", "dim id")):
    """A nondegenerate simplex: dimension plus an identifier unique in it, as
    a ``(dim, id)`` tuple (equal to the plain one) that hashes and sorts in C."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked by __new__

    def __new__(cls, dim: int, id: str):
        if dim < 0:
            raise SimplicialError("cell dimension must be non-negative")
        return tuple.__new__(cls, (dim, id))

    def __repr__(self):
        return f"Cell({self.dim}, {self.id!r})"


class Simplex(namedtuple("Simplex", "word core")):
    """Degeneracy normal form: strictly decreasing word over a cell.

    The word lists degeneracy operator indices outermost first; the total
    dimension is ``core.dim + len(word)``.  The strictly-decreasing shape is
    the unique normal form, so equality of simplices is plain equality of
    the ``(word, core)`` tuple, which hashes and compares in C.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked by __new__

    def __new__(cls, word, core: Cell):
        word = tuple(word)
        if word:
            if min(word) < 0:
                raise SimplicialError(f"negative degeneracy index in {word}")
            if not all(map(gt, word, word[1:])):
                raise SimplicialError(f"degeneracy word {word} is not strictly decreasing")
            if word[0] > core.dim + len(word) - 1:
                raise SimplicialError(f"degeneracy word {word} out of range over a {core.dim}-cell")
        return tuple.__new__(cls, (word, core))

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


def _word_surjection(word: tuple[int, ...], dim: int) -> MonotoneMap:
    """The ordinal surjection dim -> dim - len(word) encoded by a strictly
    decreasing degeneracy word."""
    return delta.from_codegeneracy_word(tuple(reversed(word)), dim)


# --------------------------------------------------------------------------
# finite simplicial sets

class FiniteSimplicialSet:
    """Finitely many nondegenerate simplices with face assignments.

    ``cells`` maps dimension -> ordered ids; ``faces`` maps (dim, id) -> the
    list of d_0..d_n values as Simplex normal forms over lower cells.  Each
    cell is stored once, as a Cell: a tuple of cells per dimension, and one
    dict from every cell to its faces (vertices map to ``()``).  The
    simplicial identities are verified on construction, on every cell, with
    the faces of nondegenerate faces read from that dict.
    """

    def __init__(self, cells, faces, name=None):
        for n in cells:
            if not isinstance(n, int) or isinstance(n, bool):
                raise PresentationError(f"cell dimension {n!r} is not an integer")
            if n < 0:
                raise PresentationError(f"cell dimension {n} is negative")
        ids = {n: tuple(cells[n]) for n in sorted(cells)}
        for n, ns in ids.items():
            if len(set(ns)) != len(ns):
                raise PresentationError(f"duplicate cell ids in dimension {n}")
        self.name = name
        self._cells, self._faces = {}, {}
        self._position = {}  # each cell's index among the cells of its dimension
        self._vertex_closure = {}
        self._boundary_columns = {}  # per degree, as ``boundary_columns`` assembles them
        self._glue(dict.fromkeys((Cell(n, i) for n, ns in ids.items() for i in ns), ()))
        for cell in self.all_cells():
            if cell.dim:
                self._set_faces(cell, faces.get(cell))
        problems = self.identity_violations()
        if problems:
            raise PresentationError("; ".join(problems[:5]))

    def _glue(self, added: dict):
        """Add cells in place, after the cells already here in each
        dimension: ``added`` maps each new Cell, in order, to its faces.
        Nothing is checked here: the constructor checks the faces it is
        given, an exhaustion glues translations of its checked slab, and
        ``facet_complex`` glues faces that hold by construction."""
        by_dim = {}
        for cell in added:
            by_dim.setdefault(cell.dim, []).append(cell)
        for n, new in by_dim.items():
            self._position.update(zip(new, count(len(self.cells(n)))))
            self._cells[n] = self._cells.get(n, ()) + tuple(new)
        self._cells = dict(sorted(self._cells.items()))
        self._faces.update(added)

    def _set_faces(self, cell: Cell, faces):
        """Check the faces of a cell of positive dimension, then store them."""
        n, i = cell.dim, cell.id
        if faces is None:
            raise PresentationError(f"missing face assignments for {n}-cell {i!r}")
        fs = tuple(faces)
        if len(fs) != n + 1:
            raise PresentationError(f"{n}-cell {i!r} needs {n + 1} faces, got {len(fs)}")
        for k, fv in enumerate(fs):
            if not isinstance(fv, Simplex):
                raise PresentationError(f"face {k} of {i!r} is not a simplex")
            if fv.core.dim + len(fv.word) != n - 1:
                raise PresentationError(f"face {k} of {n}-cell {i!r} has dimension {fv.dim}")
            if fv.core not in self._faces:
                raise PresentationError(f"face {k} of {i!r} references unknown cell {fv.core}")
        self._faces[cell] = fs

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
        if not self.has_cell(cell):
            raise SimplicialError(f"unknown cell {cell}")
        if cell.dim == 0:
            raise SimplicialError("0-simplices have no faces")
        if not 0 <= i <= cell.dim:
            raise SimplicialError(f"face index {i} outside 0..{cell.dim}")
        return self._faces[cell][i]

    def simplex(self, cell: Cell) -> Simplex:
        if not self.has_cell(cell):
            raise SimplicialError(f"unknown cell {cell}")
        return Simplex((), cell)

    def boundary_columns(self, n: int) -> list:
        """The boundary columns of the n-cells, rows at the positions of the
        cells a degree below: each assembled once, on first read, and shared
        by every stage of the complex that has its cell."""
        store = self._boundary_columns.setdefault(n, [])
        cells = self.cells(n)
        store.extend(_column(self, cell) for cell in cells[len(store):])
        return store[:len(cells)]

    # -- derived structure ---------------------------------------------------

    def vertices_of(self, cell: Cell) -> frozenset:
        """The 0-cells in the iterated face closure of a cell."""
        cached = self._vertex_closure.get(cell)
        if cached is not None:
            return cached
        if not self.has_cell(cell):
            raise SimplicialError(f"unknown cell {cell}")
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
        ``all_cells`` order."""
        if vertex.dim != 0:
            raise SimplicialError("stars are taken at 0-simplices")
        if not self.has_cell(vertex):
            raise SimplicialError(f"unknown cell {vertex}")
        return tuple(x for x in self.all_cells() if vertex in self.vertices_of(x))

    def identity_violations(self) -> list[str]:
        """Simplicial identity failures d_i d_j != d_{j-1} d_i, as messages;
        a degenerate face goes through the general face action."""
        table = self._faces
        bad = []
        for cell in self.all_cells():
            n = cell.dim
            if n < 2:
                continue
            fs = table[cell]
            rows = [None if fv.word else table[fv.core] for fv in fs]
            for j in range(1, n + 1):
                dj = rows[j]
                for i in range(j):
                    di = rows[i]
                    lhs = face(self, fs[j], i) if dj is None else dj[i]
                    rhs = face(self, fs[i], j - 1) if di is None else di[j - 1]
                    if lhs != rhs:
                        bad.append(f"d_{i} d_{j} != d_{j - 1} d_{i} at {n}-cell {cell.id!r}")
        return bad

    def __repr__(self):
        counts = ", ".join(f"{len(v)}x{k}" for k, v in self._cells.items())
        label = self.name or "complex"
        return f"FiniteSimplicialSet({label}: {counts})"


def _column(X: FiniteSimplicialSet, cell: Cell) -> dict:
    """A cell's normalized boundary column, over the positions of the cells
    a degree below: degenerate faces vanish, cancelled entries are dropped."""
    col = {}
    for i, fv in enumerate(X._faces[cell]):
        if not fv.word:
            at = X._position[fv.core]
            col[at] = col.get(at, 0) + (-1 if i % 2 else 1)
    return {r: x for r, x in col.items() if x}


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
    if not faces and not X.has_cell(x.core):  # a face walk checks through X.face
        raise SimplicialError(f"unknown cell {x.core}")
    y = Simplex((), x.core)
    for i in faces:
        y = face(X, y, i)
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
    """The degeneracy word (strictly decreasing) of epi followed by the
    surjection of ``word``."""
    total = delta.compose(_word_surjection(word, epi.target_dim), epi)
    return tuple(reversed(delta.codegeneracy_word(total)))


def face(X, x, i: int) -> Simplex:
    """The i-th face of a simplex (Cell or Simplex) of X."""
    if isinstance(x, Cell):
        x = X.simplex(x)
    n = x.dim
    if n == 0:
        raise SimplicialError("0-simplices have no faces")
    if not 0 <= i <= n:
        raise SimplicialError(f"face index {i} outside 0..{n}")
    if not x.word:
        # the stored face; the general action below returns the same simplex
        return X.face(x.core, i)
    return apply_ordinal_map(X, x, delta.coface(n - 1, i))


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
    labels; ids join the labels with dots, so they can clash, as for ("1.2", "3")
    and ("1", "2.3"), and only they are checked.  Each cell is made once, as one
    Simplex that every face naming it is, and glued unchecked, as slab
    copies are: d_i d_j and d_{j-1} d_i of a sorted tuple both drop i and j."""
    by_dim = {}
    for f in facets:
        f = tuple(sorted(set(f)))
        if not f:
            raise PresentationError("empty facet")
        for k in range(1, len(f) + 1):
            by_dim.setdefault(k - 1, set()).update(combinations(f, k))
    faces, simplex = {}, {}
    for dim in sorted(by_dim):
        for verts in sorted(by_dim[dim]):
            cell = Cell(dim, ".".join(map(str, verts)))
            simplex[verts] = Simplex((), cell)
            # combinations drop the last vertex first, so reverse: d_0 .. d_dim
            faces[cell] = tuple(map(simplex.__getitem__, combinations(verts, dim)))[::-1] if dim else ()
        if len(faces) != len(simplex):
            raise PresentationError(f"duplicate cell ids in dimension {dim}")
    X = FiniteSimplicialSet({}, {}, name)
    X._glue(faces)
    return X


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
        for key in ("base_ids", "slab_in_ids", "slab_out_ids"):
            object.__setattr__(self, key, tuple(getattr(self, key)))
        if not len(self.base_ids) == len(self.slab_in_ids) == len(self.slab_out_ids):
            raise PresentationError("attachment id lists must have equal length")
        for ids in (self.base_ids, self.slab_in_ids, self.slab_out_ids):
            if len(set(ids)) != len(ids):
                raise PresentationError("attachment id lists must be injective")


class _Stage(FiniteSimplicialSet):
    """The cells of a growing complex glued at or before a depth: a prefix
    of its cells in every dimension, so a cell is here exactly when its
    position in its dimension is below this stage's count there."""

    def __init__(self, grown: FiniteSimplicialSet, name):
        self.name = name
        self._grown = grown
        self._counts = {n: len(cells) for n, cells in grown._cells.items()}
        self._faces = grown._faces  # read only for the stage's own cells
        self._position = grown._position
        self._boundary_columns = grown._boundary_columns

    @cached_property
    def _cells(self) -> dict:
        # made on first read: most stages are only glued onto
        return {n: self._grown._cells[n][:k] for n, k in self._counts.items()}

    def cell_count(self) -> int:
        return sum(self._counts.values())

    def has_cell(self, cell: Cell) -> bool:
        at = self._position.get(cell)
        return at is not None and at < self._counts.get(cell.dim, 0)

    def vertices_of(self, cell: Cell) -> frozenset:
        if not self.has_cell(cell):
            raise SimplicialError(f"unknown cell {cell}")
        return self._grown.vertices_of(cell)


Truncation = namedtuple("Truncation", "depth complex frontier")
Truncation.__doc__ = """A finite stage of an exhaustion: ``complex`` is the prefix
of its growing complex at ``depth``; ``frontier`` holds the out-boundary cells of
copy ``depth`` on every chain (the base boundaries at depth 0), deduplicated in
chain order.  Relative theories are computed on C(complex, frontier)."""


Gluing = namedtuple("Gluing", "base into out added cycles longest")


def _gluing(slab: FiniteSimplicialSet, base_cells, into, out) -> Gluing:
    """A chain resolved to cells, with the slab cells a copy has ``added`` (those
    outside ``into``, in slab order) and where its in-boundary cells go: the cell at
    in-position k takes the out-position of ``into[k]`` in the next copy.  The steps
    are injective, so a walk ends or is a cycle, whose base cells are in every copy:
    ``cycles`` maps the slab cell at each cycle position to the base cells that take
    it in turn; ``longest`` is the longest walk that ends."""
    at = {c: k for k, c in enumerate(out)}
    steps = [at.get(c) for c in into]
    cycles, longest = {}, 0
    for k in range(len(into)):
        walk = [k]
        while (j := steps[walk[-1]]) not in (None, k):
            walk.append(j)
        if j is None:
            longest = max(longest, len(walk))
        else:
            cycles[into[k]] = tuple(base_cells[i] for i in walk)
    added = tuple(c for c in slab.all_cells() if c not in into)
    return Gluing(base_cells, into, out, added, cycles, longest)


_COPY_ID = re.compile(r"a(0|[1-9][0-9]*)c([1-9][0-9]*)\.(.*)", re.DOTALL)


class Exhaustion:
    """An increasing union of finite complexes: a base with periodic slabs.

    Stage 0 is the base; stage i+1 glues one more copy of the slab onto each
    attachment chain, identifying the copy's in-boundary with the previous
    out-boundary (the base boundary for the first copy).  The copies glue
    into one complex grown in place from the empty one; every stage is a
    prefix of it (``truncate``), and construction glues stage 0 alone.
    ``translations`` maps (a, c) to the slab-to-copy cell map of every copy
    read so far (``_translation``); ``gluings`` resolves each chain once
    (``_gluing``).
    """

    def __init__(self, base: FiniteSimplicialSet, slab: FiniteSimplicialSet,
                 attachments, name=None):
        self.name = name
        self.base = base
        self.slab = slab
        self.attachments = tuple(attachments)
        if not self.attachments:
            raise PresentationError("an exhaustion needs at least one attachment")
        base_lookup = _unique_id_lookup(base, "base")
        self._slab_lookup = _unique_id_lookup(slab, "slab")
        self.gluings = ()
        for a, att in enumerate(self.attachments):
            base_cells = tuple(self._resolve(base_lookup, i, f"base_ids[{a}]") for i in att.base_ids)
            into = tuple(self._resolve(self._slab_lookup, i, f"slab_in_ids[{a}]") for i in att.slab_in_ids)
            out = tuple(self._resolve(self._slab_lookup, i, f"slab_out_ids[{a}]") for i in att.slab_out_ids)
            _check_subcomplex(base, base_cells, f"attachment {a} base boundary")
            _check_subcomplex(slab, into, f"attachment {a} slab in-boundary")
            _check_subcomplex(slab, out, f"attachment {a} slab out-boundary")
            _check_gluing_iso(base, base_cells, slab, into, f"attachment {a} base gluing")
            _check_gluing_iso(slab, out, slab, into, f"attachment {a} slab gluing")
            self.gluings += (_gluing(slab, base_cells, into, out),)
        self.longest = max(g.longest for g in self.gluings)
        for cell in base.all_cells():  # refuse a base cell whose id a slab copy would take
            if copy := self._copy_of(cell):
                raise PresentationError(f"base cell id {cell.id!r} is taken by copy {copy[1]} of "
                                        f"slab cell {copy[2]!r} on attachment {copy[0]}")
        self.translations = {}
        self._complex = FiniteSimplicialSet({}, {}, name)
        self._stages = []
        self.truncate(0)

    def _copy_of(self, cell):
        """``(a, d, id)`` when the cell is named as copy d, on chain a, of a
        slab cell ``id`` that copies add, named ``a{a}c{d}.{id}``; else None."""
        match = _COPY_ID.fullmatch(cell.id) if isinstance(cell.id, str) else None
        copied = match and int(match[1]) < len(self.gluings) and self._slab_lookup.get(match[3])
        if copied and copied.dim == cell.dim and copied not in self.gluings[int(match[1])].into:
            return int(match[1]), int(match[2]), match[3]
        return None

    @staticmethod
    def _resolve(lookup, cid, where):
        cell = lookup.get(cid)
        if cell is None:
            raise PresentationError(f"{where}: unknown cell id {cid!r}")
        return cell

    def truncate(self, depth: int) -> Truncation:
        """The finite stage at the given depth.  Each stage is built once, so
        stages nest by id: stage 0 glues the base's cells, and stage d one slab
        copy per chain onto the stage before it.

        Every stage transition is a chain map, with no check at run time.
        Write K_i for stage i and F_i for its frontier, the union of copy i's
        out-boundaries (the base boundaries at i = 0); both are subcomplexes,
        as ``__init__`` checks the boundaries face-closed and the gluings
        isomorphisms.  (1) A new cell of copy i+1 has its faces new or on
        copy i's out-boundary (the base boundary for copy 1), where the copy's
        in-boundary is glued.  (2) ``_glue`` moves no cell, so K_i's columns
        lead K_{i+1}'s with rows at the same positions: the inclusion commutes
        with the boundary.  (3) An old cell of copy i+1's out-boundary is an
        in-cell, glued to F_i, so F_{i+1} ∩ K_i ⊆ F_i.  The projection
        C(K_{i+1}, F_{i+1}) -> C(K_i, F_i) keeps each cell of K_i - F_i, whose
        faces lie in K_i, where both ways round drop exactly those in F_i.  A
        cell it sends to zero lies in F_i or is new, so by (1) its faces lie
        in F_i or are new, and miss the kept basis.  Duals of chain maps are
        cochain maps."""
        if depth < 0:
            raise SimplicialError("depth must be non-negative")
        for d in range(len(self._stages), depth + 1):
            if d:
                trans = [self._translation(a, d) for a in range(len(self.gluings))]
                # the slab checked each word over a core of this dimension
                added = {t[c]: tuple(tuple.__new__(Simplex, (fv.word, t[fv.core]))
                                     for fv in self.slab._faces[c])
                         for t, g in zip(trans, self.gluings) for c in g.added}
                frontier = (t[c] for t, g in zip(trans, self.gluings) for c in g.out)
            else:
                added = {c: self.base._faces[c] for c in self.base.all_cells()}
                frontier = (c for g in self.gluings for c in g.base)
            self._complex._glue(added)
            self._stages.append(Truncation(d, _Stage(self._complex, f"{self.name or 'exhaustion'}[{d}]"),
                                           tuple(dict.fromkeys(frontier))))
        return self._stages[depth]

    def _translation(self, a: int, c: int) -> dict:
        """Copy c's slab-to-cell map on chain a, made on first read, gluing no
        stage: an in-boundary cell is the cell at its position in copy c - 1's
        out-boundary (the base's, for copy 1); a cell the copy adds is new."""
        if (a, c) not in self.translations:
            g = self.gluings[a]
            glued = [self._translation(a, c - 1)[x] for x in g.out] if c > 1 else g.base
            trans = self.translations[(a, c)] = dict(zip(g.into, glued))
            trans.update((x, Cell(x.dim, f"a{a}c{c}.{x.id}")) for x in g.added)
        return self.translations[(a, c)]

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
    members = set(cells)  # cells of X, as resolved from its ids
    for cell in cells:
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
            raise PresentationError(f"{where}: {xc.id!r} and {yc.id!r} differ in dimension")
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

@dataclass(slots=True)
class LocalFinitenessReport:
    """Whether every vertex star is finite, or a ``witness`` whose star keeps
    growing, set at once with ``notes``.  ``star_sizes`` maps vertices by id
    to their star sizes and ``max_star`` is the largest: given ``_stars_at``
    (returning a complex and the vertices to count there), both on first read."""

    ok: bool
    max_star: int | None = None
    witness: str | None = None
    star_sizes: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    _stars_at: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._stars_at is not None:
            del self.max_star, self.star_sizes

    def __getattr__(self, name):
        # reached only for a star field not yet counted
        if name not in ("max_star", "star_sizes") or self._stars_at is None:
            raise AttributeError(name)
        (K, vertices), self._stars_at = self._stars_at(), None
        stars = Counter(v for x in K.all_cells() for v in K.vertices_of(x))
        self.star_sizes = {v.id: stars[v] for v in vertices}
        self.max_star = max(self.star_sizes.values(), default=0)
        return getattr(self, name)


def _crowding(X: Exhaustion, selected) -> LocalFinitenessReport | None:
    """The refusal when copies of the selected slab cells (per chain, copied
    into every copy) crowd a vertex star, or None.  A selected cell on a
    cycle of its ``Gluing`` is the same base cell in every copy; any
    other is new in each copy, and crowds the base vertices that take a cycle
    vertex of its closure.  The witness is the one the earliest copy from 2
    on adds to, ties going to the first base vertex."""
    crowded = {b for cells, g in zip(selected, X.gluings)
               for c in cells if c not in g.cycles
               for v in X.slab.vertices_of(c) for b in g.cycles.get(v, ())}
    crowded = [v for v in X.base.cells(0) if v in crowded]
    for depth in count(2) if crowded else ():  # each gains once round its cycle
        stage = X.truncate(depth)
        copies = {X.translations[(a, depth)][c] for a, cells in enumerate(selected) for c in cells}
        for v in crowded:
            grown = sorted(c.id for c in copies if v in stage.complex.vertices_of(c))
            if grown:
                return LocalFinitenessReport(
                    ok=False, witness=f"vertex {v.id!r} keeps gaining simplices (e.g. {grown[:3]})",
                    notes=[f"star grew between stages {depth - 1} and {depth}"])
    return None


def is_locally_finite(X) -> LocalFinitenessReport:
    """Certify that every vertex is adjacent to finitely many nondegenerate
    simplices.

    Finite complexes are locally finite outright; an exhaustion is unless
    the cells that copies add crowd a star (``_crowding``).  The stars are
    counted when read: those of the stage-3 vertices, at stage 4 +
    ``longest``, past the last copy glued onto any of them."""
    if isinstance(X, FiniteSimplicialSet):
        note, stars_at = "finite complex: every star is finite", lambda: (X, X.cells(0))
    else:
        refusal = _crowding(X, [g.added for g in X.gluings])
        if refusal is not None:
            return refusal
        depth = 4 + X.longest
        note = f"stars stabilized across stages 1..{depth}"
        stars_at = lambda: (X.truncate(depth).complex, X.truncate(3).complex.cells(0))
    return LocalFinitenessReport(ok=True, notes=[note], _stars_at=stars_at)
