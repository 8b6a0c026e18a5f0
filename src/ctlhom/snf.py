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


class _Worker:
    """Sparse workspace tracking transforms alongside the matrix.

    The matrix is kept as rows of ``{col: value}`` plus ``index[col]``, the
    set of rows that are nonzero in that column.  Each elementary operation
    on the matrix applies the matching operation to U (row ops) or V (column
    ops) and the *inverse* operation to U^-1 / V^-1, so the inverses are
    certificates rather than recomputations.  U and V^-1 are stored by rows
    and U^-1 and V by columns: every operation then adds or swaps whole
    sparse vectors.  A transform not in ``track`` is None and never touched.
    """

    def __init__(self, m: IntMatrix, track):
        self.rows = m.rows
        self.cols = m.cols
        self.a = [dict(r) for r in m.entries]
        self.index = [set() for _ in range(m.cols)]
        for i, row in enumerate(self.a):
            for j in row:
                self.index[j].add(i)
        self.u = [{i: 1} for i in range(m.rows)] if "u" in track else None
        self.ui_cols = [{i: 1} for i in range(m.rows)] if "u_inv" in track else None
        self.v_cols = [{j: 1} for j in range(m.cols)] if "v" in track else None
        self.vi = [{j: 1} for j in range(m.cols)] if "v_inv" in track else None
        self.row_sides = [t for t in (self.u, self.ui_cols) if t is not None]
        self.col_sides = [t for t in (self.v_cols, self.vi) if t is not None]

    # row ops: left multiplication; the inverse accumulates right of U^-1.
    def swap_rows(self, i, j):
        if i == j:
            return
        a = self.a
        # a column holding exactly one of the two rows now holds the other
        for c in a[i].keys() ^ a[j].keys():
            self.index[c] ^= {i, j}
        a[i], a[j] = a[j], a[i]
        for t in self.row_sides:
            t[i], t[j] = t[j], t[i]

    def add_row(self, src, dst, k):
        """row[dst] += k * row[src]"""
        if k == 0:
            return
        row = self.a[dst]
        for c, y in self.a[src].items():
            x = row.get(c, 0) + k * y
            if x:
                row[c] = x
                self.index[c].add(dst)
            else:
                del row[c]
                self.index[c].discard(dst)
        if self.u is not None:
            _add_scaled(self.u[dst], self.u[src], k)
        if self.ui_cols is not None:
            _add_scaled(self.ui_cols[src], self.ui_cols[dst], -k)

    def negate_row(self, i):
        for vec in [self.a[i]] + [t[i] for t in self.row_sides]:
            for c in vec:
                vec[c] = -vec[c]

    # column ops: right multiplication; the inverse accumulates left of V^-1.
    def swap_cols(self, i, j):
        if i == j:
            return
        index = self.index
        for r in index[i] | index[j]:
            row = self.a[r]
            x = row.pop(i, 0)
            y = row.pop(j, 0)
            if y:
                row[i] = y
            if x:
                row[j] = x
        index[i], index[j] = index[j], index[i]
        for t in self.col_sides:
            t[i], t[j] = t[j], t[i]

    def add_col(self, src, dst, k):
        """col[dst] += k * col[src]"""
        if k == 0:
            return
        rows = self.index[dst]
        for r in self.index[src]:
            row = self.a[r]
            x = row.get(dst, 0) + k * row[src]
            if x:
                row[dst] = x
                rows.add(r)
            else:
                del row[dst]
                rows.discard(r)
        if self.v_cols is not None:
            _add_scaled(self.v_cols[dst], self.v_cols[src], k)
        if self.vi is not None:
            _add_scaled(self.vi[src], self.vi[dst], -k)

    def clear_column(self, t) -> bool:
        """Reduce column t below the pivot by division with remainder, in
        ascending row order.  True when a remainder was swapped up into the
        pivot, so the column needs another pass."""
        dirty = False
        # only rows t and i change while row i is handled, so later rows
        # keep the entries they had when the pass began
        for i in sorted(i for i in self.index[t] if i > t):
            q = self.a[i][t] // self.a[t][t]
            self.add_row(t, i, -q)
            if t in self.a[i]:
                # remainder smaller than pivot: swap it up and restart
                self.swap_rows(t, i)
                dirty = True
        return dirty

    def clear_row(self, t) -> bool:
        """The same for row t right of the pivot, by column operations."""
        dirty = False
        for j in sorted(j for j in self.a[t] if j > t):
            q = self.a[t][j] // self.a[t][t]
            self.add_col(t, j, -q)
            if j in self.a[t]:
                self.swap_cols(t, j)
                dirty = True
        return dirty

    def clear(self, t, column_first: bool):
        """Clear row and column t until neither pass swaps a remainder in."""
        first, second = ((self.clear_column, self.clear_row) if column_first
                         else (self.clear_row, self.clear_column))
        while True:
            if first(t):
                continue
            if not second(t):
                return


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
    limit = min(w.rows, w.cols)
    t = 0
    while t < limit:
        pivot = _find_pivot(w, t)
        if pivot is None:
            break
        pi, pj = pivot
        w.swap_rows(t, pi)
        w.swap_cols(t, pj)
        w.clear(t, column_first=True)
        if w.a[t][t] < 0:
            w.negate_row(t)
        # divisibility sweep: the pivot must divide every later entry
        offender = _divisibility_offender(w, t)
        while offender is not None:
            w.add_row(offender, t, 1)
            # re-clear; the recursive structure keeps this terminating because
            # gcd of the block strictly divides the old pivot
            w.clear(t, column_first=False)
            if w.a[t][t] < 0:
                w.negate_row(t)
            offender = _divisibility_offender(w, t)
        t += 1
    rows, cols = w.rows, w.cols

    def emit(vectors, n, by_columns=False):
        out = None if vectors is None else IntMatrix.from_entries(n, n, vectors)
        return out.transpose() if by_columns and out is not None else out

    return SmithDecomposition(
        matrix=m,
        diagonal=IntMatrix.from_entries(rows, cols, w.a),
        u=emit(w.u, rows),
        u_inv=emit(w.ui_cols, rows, by_columns=True),
        v=emit(w.v_cols, cols, by_columns=True),
        v_inv=emit(w.vi, cols),
    )


def invariant_factors(m: IntMatrix) -> tuple:
    """The invariant factors of ``m``, without transforms.

    Invariant factors do not depend on the pivots, so this picks its own:
    while some column holds a ±1, it takes the column with the fewest
    nonzeros and in it the shortest row holding a unit, and replaces the
    matrix by the Schur complement of that pivot, which contributes a 1.
    ``smith_normal_form`` reduces what is left.  See Mrozek and Batko,
    "Coreduction homology algorithm" (2009).
    """
    w = _Worker(m, ())
    rows, index = w.a, w.index
    # (nonzeros, column), pushed again whenever the column changes
    heap = [(len(rs), j) for j, rs in enumerate(index) if rs]
    heapq.heapify(heap)
    eliminated = 0
    while heap:
        n, q = heapq.heappop(heap)
        if len(index[q]) != n:
            continue
        units = [(len(rows[i]), i) for i in index[q] if rows[i][q] in (1, -1)]
        if not units:
            continue
        p = min(units)[1]
        for i in index[q] - {p}:
            w.add_row(p, i, -rows[i][q] * rows[p][q])  # clears rows[i][q]
        for c in rows[p]:
            index[c].discard(p)
            if index[c]:
                heapq.heappush(heap, (len(index[c]), c))
        rows[p] = {}
        eliminated += 1
    # zero rows and columns change no invariant factor
    live = [row for row in rows if row]
    cols = {j: k for k, j in enumerate(j for j, rs in enumerate(index) if rs)}
    residual = IntMatrix.from_entries(
        len(live), len(cols), ({cols[j]: x for j, x in row.items()} for row in live))
    return (1,) * eliminated + smith_normal_form(residual, ()).invariant_factors


def _find_pivot(w: _Worker, t: int):
    """Least |entry| in the block from (t, t), preferring a ±1 outright;
    ties go to the first entry in row-major order."""
    best = None
    best_val = None
    for i in range(t, w.rows):
        row_best = min(((abs(x), j) for j, x in w.a[i].items() if j >= t),
                       default=None)
        if row_best is None:
            continue
        v, j = row_best
        if v == 1:
            return (i, j)
        if best_val is None or v < best_val:
            best, best_val = (i, j), v
    return best


def _divisibility_offender(w: _Worker, t: int):
    """First row below t with an entry the pivot does not divide."""
    d = w.a[t][t]
    if d == 1:
        return None
    for i in range(t + 1, w.rows):
        if any(x % d for j, x in w.a[i].items() if j > t):
            return i
    return None
