"""Exact integer matrix arithmetic and Smith normal form.

Everything here is over the integers with Python's arbitrary precision —
no floats anywhere.  The Smith reduction returns unimodular transforms and
their inverses so callers can reconstruct kernels, compute coordinates of
vectors in quotient presentations, and verify U @ M @ V == D directly.
"""

from __future__ import annotations

from dataclasses import dataclass


class MatrixError(ValueError):
    pass


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, rows-major tuple of tuples."""

    rows: int
    cols: int
    data: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise MatrixError("negative matrix shape")
        data = tuple(tuple(int(v) for v in row) for row in self.data)
        if len(data) != self.rows or any(len(r) != self.cols for r in data):
            raise MatrixError(
                f"data shape does not match {self.rows}x{self.cols}"
            )
        object.__setattr__(self, "data", data)

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        return IntMatrix(n, m, tuple(tuple(r) for r in rows))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(
            n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def col(self, j: int) -> tuple:
        return tuple(self.data[i][j] for i in range(self.rows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols, self.rows,
            tuple(tuple(self.data[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise MatrixError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ot = other.transpose()
        return IntMatrix(
            self.rows, other.cols,
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ot.data)
                for row in self.data
            ),
        )

    def apply(self, vector) -> tuple:
        """Matrix times column vector, as a tuple."""
        vec = tuple(int(v) for v in vector)
        if len(vec) != self.cols:
            raise MatrixError(f"vector length {len(vec)} != {self.cols} columns")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.data)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.data for v in row)

    def submatrix(self, row_range, col_range) -> "IntMatrix":
        rs = list(row_range)
        cs = list(col_range)
        return IntMatrix(
            len(rs), len(cs),
            tuple(tuple(self.data[i][j] for j in cs) for i in rs),
        )

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
    ``v_inv`` are the tracked inverses (exact, not recomputed).
    """

    matrix: IntMatrix
    diagonal: IntMatrix
    u: IntMatrix
    u_inv: IntMatrix
    v: IntMatrix
    v_inv: IntMatrix

    @property
    def invariant_factors(self) -> tuple:
        out = []
        for k in range(min(self.diagonal.rows, self.diagonal.cols)):
            d = self.diagonal[k, k]
            if d == 0:
                break
            out.append(d)
        return tuple(out)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def verify(self) -> bool:
        """Recheck the factorization and both inverse certificates."""
        if (self.u @ self.matrix @ self.v).data != self.diagonal.data:
            return False
        if (self.u @ self.u_inv).data != IntMatrix.identity(self.u.rows).data:
            return False
        if (self.v @ self.v_inv).data != IntMatrix.identity(self.v.rows).data:
            return False
        ifs = self.invariant_factors
        for a, b in zip(ifs, ifs[1:]):
            if b % a != 0:
                return False
        # beyond the rank the diagonal must be all zero
        for k in range(len(ifs), min(self.diagonal.rows, self.diagonal.cols)):
            if self.diagonal[k, k] != 0:
                return False
        for i in range(self.diagonal.rows):
            for j in range(self.diagonal.cols):
                if i != j and self.diagonal[i, j] != 0:
                    return False
        return True


class _Worker:
    """Mutable row-major workspace tracking transforms alongside the matrix.

    Each elementary operation on the matrix applies the matching operation
    to U (row ops) or V (column ops) and the *inverse* operation to u_inv /
    v_inv, so the inverses are certificates rather than recomputations.
    """

    def __init__(self, m: IntMatrix):
        self.a = [list(r) for r in m.data]
        self.rows = m.rows
        self.cols = m.cols
        self.u = [list(r) for r in IntMatrix.identity(m.rows).data]
        self.ui = [list(r) for r in IntMatrix.identity(m.rows).data]
        self.v = [list(r) for r in IntMatrix.identity(m.cols).data]
        self.vi = [list(r) for r in IntMatrix.identity(m.cols).data]

    # row ops: left multiplication.  inverse accumulates on the right of ui.
    def swap_rows(self, i, j):
        if i == j:
            return
        self.a[i], self.a[j] = self.a[j], self.a[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]
        for r in self.ui:
            r[i], r[j] = r[j], r[i]

    def add_row(self, src, dst, k):
        """row[dst] += k * row[src]"""
        if k == 0:
            return
        self.a[dst] = [x + k * y for x, y in zip(self.a[dst], self.a[src])]
        self.u[dst] = [x + k * y for x, y in zip(self.u[dst], self.u[src])]
        for r in self.ui:
            r[src] -= k * r[dst]

    def negate_row(self, i):
        self.a[i] = [-x for x in self.a[i]]
        self.u[i] = [-x for x in self.u[i]]
        for r in self.ui:
            r[i] = -r[i]

    # column ops: right multiplication.  inverse accumulates on the left of vi.
    def swap_cols(self, i, j):
        if i == j:
            return
        for r in self.a:
            r[i], r[j] = r[j], r[i]
        for r in self.v:
            r[i], r[j] = r[j], r[i]
        self.vi[i], self.vi[j] = self.vi[j], self.vi[i]

    def add_col(self, src, dst, k):
        """col[dst] += k * col[src]"""
        if k == 0:
            return
        for r in self.a:
            r[dst] += k * r[src]
        for r in self.v:
            r[dst] += k * r[src]
        self.vi[src] = [x - k * y for x, y in zip(self.vi[src], self.vi[dst])]

    def negate_col(self, i):
        for r in self.a:
            r[i] = -r[i]
        for r in self.v:
            r[i] = -r[i]
        self.vi[i] = [-x for x in self.vi[i]]


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms and tracked inverses.

    Standard pivoting reduction: pick the least nonzero entry in the working
    block (preferring ±1), clear its row and column by division with
    remainder, fix any divisibility failure by folding the offending row into
    the pivot row, then recurse into the next block.  Runs in exact integer
    arithmetic throughout.
    """
    w = _Worker(m)
    limit = min(w.rows, w.cols)
    t = 0
    while t < limit:
        pivot = _find_pivot(w, t)
        if pivot is None:
            break
        pi, pj = pivot
        w.swap_rows(t, pi)
        w.swap_cols(t, pj)
        while True:
            # clear column t below/above the pivot
            dirty = False
            for i in range(t + 1, w.rows):
                if w.a[i][t] != 0:
                    q = w.a[i][t] // w.a[t][t]
                    w.add_row(t, i, -q)
                    if w.a[i][t] != 0:
                        # remainder smaller than pivot: swap it up and restart
                        w.swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, w.cols):
                if w.a[t][j] != 0:
                    q = w.a[t][j] // w.a[t][t]
                    w.add_col(t, j, -q)
                    if w.a[t][j] != 0:
                        w.swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            break
        if w.a[t][t] < 0:
            w.negate_row(t)
        # divisibility sweep: the pivot must divide every later entry
        offender = _divisibility_offender(w, t)
        while offender is not None:
            oi, _ = offender
            w.add_row(oi, t, 1)
            # re-clear; the recursive structure keeps this terminating because
            # gcd of the block strictly divides the old pivot
            while True:
                dirty = False
                for j in range(t + 1, w.cols):
                    if w.a[t][j] != 0:
                        q = w.a[t][j] // w.a[t][t]
                        w.add_col(t, j, -q)
                        if w.a[t][j] != 0:
                            w.swap_cols(t, j)
                            dirty = True
                if dirty:
                    continue
                for i in range(t + 1, w.rows):
                    if w.a[i][t] != 0:
                        q = w.a[i][t] // w.a[t][t]
                        w.add_row(t, i, -q)
                        if w.a[i][t] != 0:
                            w.swap_rows(t, i)
                            dirty = True
                if not dirty:
                    break
            if w.a[t][t] < 0:
                w.negate_row(t)
            offender = _divisibility_offender(w, t)
        t += 1
    diag = IntMatrix(
        w.rows, w.cols, tuple(tuple(r) for r in w.a)
    )
    return SmithDecomposition(
        matrix=m,
        diagonal=diag,
        u=IntMatrix(w.rows, w.rows, tuple(tuple(r) for r in w.u)),
        u_inv=IntMatrix(w.rows, w.rows, tuple(tuple(r) for r in w.ui)),
        v=IntMatrix(w.cols, w.cols, tuple(tuple(r) for r in w.v)),
        v_inv=IntMatrix(w.cols, w.cols, tuple(tuple(r) for r in w.vi)),
    )


def _find_pivot(w: _Worker, t: int):
    """Least |entry| in the block from (t, t), preferring a ±1 outright."""
    best = None
    best_val = None
    for i in range(t, w.rows):
        for j in range(t, w.cols):
            v = abs(w.a[i][j])
            if v == 0:
                continue
            if v == 1:
                return (i, j)
            if best_val is None or v < best_val:
                best, best_val = (i, j), v
    return best


def _divisibility_offender(w: _Worker, t: int):
    d = w.a[t][t]
    for i in range(t + 1, w.rows):
        for j in range(t + 1, w.cols):
            if w.a[i][j] % d != 0:
                return (i, j)
    return None
