"""Exact integer matrix arithmetic and Smith normal form.

Everything here is over the integers with Python's arbitrary precision —
no floats anywhere.  The Smith reduction returns unimodular transforms and
their inverses so callers can reconstruct kernels, compute coordinates of
vectors in quotient presentations, and verify U @ M @ V == D directly.
A caller names the transforms it reads, and only those are tracked.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


class MatrixError(ValueError):
    pass


class IntMatrix:
    """Sparse integer matrix: one ``{col: value}`` dict per row in
    ``entries``, zeros omitted.  ``data`` is the derived dense view, a tuple
    of row tuples.  A matrix is never changed after construction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise MatrixError("negative matrix shape")
        data = [tuple(map(int, row)) for row in data]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise MatrixError(f"data shape does not match {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.entries = tuple({j: x for j, x in enumerate(r) if x} for r in data)

    @staticmethod
    def from_entries(rows: int, cols: int, entries) -> "IntMatrix":
        """The matrix with the given ``{col: value}`` dict per row.  The
        dicts must omit zeros and become the matrix's own: the caller
        changes them no further."""
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows:
            raise MatrixError(f"{len(entries)} rows do not fit {rows}x{cols}")
        m = object.__new__(IntMatrix)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        return IntMatrix(len(rows), len(rows[0]) if rows else 0, rows)

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix.from_entries(rows, cols, ({} for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix.from_entries(n, n, ({i: 1} for i in range(n)))

    @property
    def data(self) -> tuple:
        return tuple(self.row(i) for i in range(self.rows))

    def row(self, i: int) -> tuple:
        row = self.entries[i]
        return tuple(row.get(j, 0) for j in range(self.cols))

    def col(self, j: int) -> tuple:
        j = range(self.cols)[j]
        return tuple(row.get(j, 0) for row in self.entries)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self.entries)))

    def drop_cols(self, r: int) -> "IntMatrix":
        """The matrix without its first r columns: itself when r is 0."""
        if r == 0:
            return self
        return IntMatrix.from_entries(self.rows, self.cols - r, (
            {j - r: x for j, x in row.items() if j >= r} for row in self.entries))

    def transpose(self) -> "IntMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for j, x in row.items():
                out[j][i] = x
        return IntMatrix.from_entries(self.cols, self.rows, out)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise MatrixError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # each left row is a sum of a * (right row k) over its nonzeros a
        right = other.entries
        out = []
        for row in self.entries:
            acc = {}
            for k, a in row.items():
                for j, b in right[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: x for j, x in acc.items() if x})
        return IntMatrix.from_entries(self.rows, other.cols, out)

    def apply(self, vector) -> tuple:
        """Matrix times column vector, as a tuple."""
        vec = tuple(int(v) for v in vector)
        if len(vec) != self.cols:
            raise MatrixError(f"vector length {len(vec)} != {self.cols} columns")
        return tuple(sum(a * vec[j] for j, a in row.items()) for row in self.entries)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __repr__(self):
        if self.rows * self.cols > 36:
            return f"IntMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(v) for v in row) for row in self.data)
        return f"IntMatrix([{body}])"


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ matrix @ V == diagonal, with U, V unimodular.

    ``diagonal`` has non-negative entries d_1 | d_2 | ... on the main
    diagonal; ``invariant_factors`` lists the nonzero ones.  ``u_inv`` and
    ``v_inv`` are the tracked inverses (exact, not recomputed).  A transform
    the reduction was not asked to track is None.
    """

    matrix: IntMatrix
    diagonal: IntMatrix
    u: IntMatrix | None
    u_inv: IntMatrix | None
    v: IntMatrix | None
    v_inv: IntMatrix | None

    @property
    def invariant_factors(self) -> tuple:
        out = []
        for k, row in enumerate(self.diagonal.entries):
            d = row.get(k, 0)
            if d == 0:
                break
            out.append(d)
        return tuple(out)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def verify(self) -> bool:
        """Recheck the factorization and both inverse certificates."""
        if None in (self.u, self.u_inv, self.v, self.v_inv):
            raise MatrixError("verify needs all four transforms")
        if self.u @ self.matrix @ self.v != self.diagonal:
            return False
        if self.u @ self.u_inv != IntMatrix.identity(self.u.rows):
            return False
        if self.v @ self.v_inv != IntMatrix.identity(self.v.rows):
            return False
        if any(j != i for i, row in enumerate(self.diagonal.entries) for j in row):
            return False
        # each diagonal entry divides the next, and zeros come last
        d = [row.get(i, 0) for i, row in enumerate(self.diagonal.entries)]
        return all(b == 0 if a == 0 else b % a == 0 for a, b in zip(d, d[1:]))


class _Side:
    """The rows, or the columns, of the Smith workspace: ``lines`` as
    ``{index: value}`` dicts, zeros omitted, and ``cross``, the other
    side's, which every operation keeps equal to their transpose.  Each
    operation applies itself to ``along`` (U or V, stored by this side's
    lines) and its *inverse* to ``across`` (U^-1 or V^-1, stored by the
    crossing lines), so the inverses are certificates rather than
    recomputations.  A transform not tracked is None and never touched."""

    __slots__ = ("lines", "cross", "along", "across", "tracked")

    def __init__(self, lines, cross, along: bool, across: bool):
        self.lines, self.cross = lines, cross
        self.along = [{i: 1} for i in range(len(lines))] if along else None
        self.across = [{i: 1} for i in range(len(lines))] if across else None
        self.tracked = [t for t in (self.along, self.across) if t is not None]

    def swap(self, i, j):
        if i == j:
            return
        lines = self.lines
        for c in lines[i].keys() | lines[j].keys():
            line = self.cross[c]
            x, y = line.pop(i, 0), line.pop(j, 0)
            if y:
                line[i] = y
            if x:
                line[j] = x
        lines[i], lines[j] = lines[j], lines[i]
        for t in self.tracked:
            t[i], t[j] = t[j], t[i]

    def add(self, src, dst, k):
        """line[dst] += k * line[src]"""
        if k == 0:
            return
        line, cross = self.lines[dst], self.cross
        for c, y in self.lines[src].items():
            x = line.get(c, 0) + k * y
            if x:
                line[c] = cross[c][dst] = x
            else:
                del line[c], cross[c][dst]
        if self.along is not None:
            _add_scaled(self.along[dst], self.along[src], k)
        if self.across is not None:
            _add_scaled(self.across[src], self.across[dst], -k)

    def negate(self, i):
        line, cross = self.lines[i], self.cross
        for c, x in line.items():
            line[c] = cross[c][i] = -x
        for t in self.tracked:
            vec = t[i]
            for c in vec:
                vec[c] = -vec[c]

    def clear(self, t) -> bool:
        """Reduce crossing line t past the pivot (t, t) by division with
        remainder, in ascending order of line.  True when a remainder was
        swapped up into the pivot, so the crossing line needs another pass."""
        lines = self.lines
        dirty = False
        # only lines t and i change while line i is handled, so later lines
        # keep the entries they had when the pass began
        for i in sorted(i for i in self.cross[t] if i > t):
            self.add(t, i, -(lines[i][t] // lines[t][t]))
            if t in lines[i]:
                # remainder smaller than pivot: swap it up and restart
                self.swap(t, i)
                dirty = True
        return dirty


class _Worker:
    """Sparse workspace: the matrix kept both by rows and by columns, each
    side carrying the transforms its operations update, U and U^-1 for
    rows, V and V^-1 for columns.  Only the transforms in ``track`` are
    built; the columns in ``skip`` are left empty."""

    __slots__ = ("rows", "cols")

    def __init__(self, m: IntMatrix, track, skip=()):
        rows = ([{j: x for j, x in r.items() if j not in skip} for r in m.entries] if skip
                else [dict(r) for r in m.entries])
        cols = [{} for _ in range(m.cols)]
        for i, row in enumerate(rows):
            for j, x in row.items():
                cols[j][i] = x
        self.rows = _Side(rows, cols, "u" in track, "u_inv" in track)
        self.cols = _Side(cols, rows, "v" in track, "v_inv" in track)

    def clear(self, t, column_first: bool):
        """Clear row and column t until neither pass swaps a remainder in:
        row operations clear the column, column operations the row."""
        first, second = (self.rows, self.cols) if column_first else (self.cols, self.rows)
        while first.clear(t) or second.clear(t):
            pass


def _add_scaled(dst: dict, src: dict, k: int):
    """dst += k * src on sparse vectors, dropping entries that cancel."""
    for c, y in src.items():
        x = dst.get(c, 0) + k * y
        if x:
            dst[c] = x
        else:
            del dst[c]


TRANSFORMS = ("u", "u_inv", "v", "v_inv")


def smith_normal_form(m: IntMatrix, track=TRANSFORMS) -> SmithDecomposition:
    """Smith normal form with unimodular transforms and tracked inverses.

    Standard pivoting reduction: pick the least nonzero entry in the working
    block (preferring ±1), clear its row and column by division with
    remainder, fix any divisibility failure by folding the offending row into
    the pivot row, then recurse into the next block.  Runs in exact integer
    arithmetic throughout, touching only nonzero entries.

    ``track`` names the transforms to build, out of ``TRANSFORMS``; the
    others are None.  The pivots, D and the tracked transforms do not
    depend on it.
    """
    if not set(track) <= set(TRANSFORMS):
        raise MatrixError(f"unknown transforms in {tuple(track)}")
    w = _Worker(m, track)
    rows, cols = w.rows, w.cols
    for t in range(min(m.rows, m.cols)):
        pivot = _find_pivot(rows.lines, t)
        if pivot is None:
            break
        rows.swap(t, pivot[0])
        cols.swap(t, pivot[1])
        column_first = True
        while True:
            w.clear(t, column_first)
            if rows.lines[t][t] < 0:
                rows.negate(t)
            # divisibility sweep: the pivot must divide every later entry.
            # Folding an offending row in and clearing again terminates,
            # because the gcd of the block strictly divides the old pivot.
            offender = _divisibility_offender(rows.lines, t)
            if offender is None:
                break
            rows.add(offender, t, 1)
            column_first = False

    def emit(vectors, n, by_columns=False):
        if vectors is None:
            return None
        out = IntMatrix.from_entries(n, n, vectors)
        return out.transpose() if by_columns else out

    return SmithDecomposition(
        matrix=m,
        diagonal=IntMatrix.from_entries(m.rows, m.cols, rows.lines),
        u=emit(rows.along, m.rows),
        u_inv=emit(rows.across, m.rows, by_columns=True),
        v=emit(cols.along, m.cols, by_columns=True),
        v_inv=emit(cols.across, m.cols),
    )


def invariant_factors(m: IntMatrix, skip=(), pivot_rows=None) -> tuple:
    """The invariant factors of ``m``, without transforms.

    Invariant factors do not depend on the pivots, so this picks its own:
    while some column holds a ±1, it takes the column with the fewest
    nonzeros and in it the shortest row holding a unit, and replaces the
    matrix by the Schur complement of that pivot, which contributes a 1.
    ``smith_normal_form`` reduces what is left.  See Mrozek and Batko,
    "Coreduction homology algorithm" (2009).

    The columns in ``skip`` are left out, which is exact only where they lie
    in the span of the others (``chainalg.StageComplex.factors``).  When
    ``pivot_rows`` is a set, the row of each unit pivot is added to it.
    """
    w = _Worker(m, (), skip)
    rows, cols = w.rows.lines, w.cols.lines
    # (nonzeros, column), pushed again whenever the column changes
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapq.heapify(heap)
    eliminated = 0
    while heap:
        n, q = heapq.heappop(heap)
        if len(cols[q]) != n:
            continue
        units = [(len(rows[i]), i) for i, x in cols[q].items() if x in (1, -1)]
        if not units:
            continue
        p = min(units)[1]
        for i in cols[q].keys() - {p}:
            w.rows.add(p, i, -rows[i][q] * rows[p][q])  # clears rows[i][q]
        for c in rows[p]:
            del cols[c][p]
            if cols[c]:
                heapq.heappush(heap, (len(cols[c]), c))
        rows[p] = {}
        eliminated += 1
        if pivot_rows is not None:
            pivot_rows.add(p)
    # zero rows and columns change no invariant factor
    live = [row for row in rows if row]
    if not live:
        return (1,) * eliminated
    kept = {j: k for k, j in enumerate(j for j, col in enumerate(cols) if col)}
    residual = IntMatrix.from_entries(
        len(live), len(kept), ({kept[j]: x for j, x in row.items()} for row in live))
    return (1,) * eliminated + smith_normal_form(residual, ()).invariant_factors


def _find_pivot(rows, t: int):
    """Least |entry| in the block from (t, t), preferring a ±1 outright;
    ties go to the first entry in row-major order."""
    best = None
    best_val = None
    for i in range(t, len(rows)):
        row_best = min(((abs(x), j) for j, x in rows[i].items() if j >= t),
                       default=None)
        if row_best is None:
            continue
        v, j = row_best
        if v == 1:
            return (i, j)
        if best_val is None or v < best_val:
            best, best_val = (i, j), v
    return best


def _divisibility_offender(rows, t: int):
    """First row below t with an entry the pivot does not divide."""
    d = rows[t][t]
    if d == 1:
        return None
    for i in range(t + 1, len(rows)):
        if any(x % d for j, x in rows[i].items() if j > t):
            return i
    return None
