"""Sparse exact linear algebra over a field.

Columns are sorted lists of ``(row, coeff)`` with strictly increasing rows
and no stored zeros.  Everything works column-at-a-time through one
left-to-right reduction loop, :meth:`ColumnReducer.reduce`, which keeps a
map from pivot row to an already-reduced column.  ``rank`` counts the
columns that survive it; ``kernel`` runs it on columns extended by their
combination vectors, so no second elimination is needed to track them.  The
same loop drives the persistence pairing and the direct page engine, so a
bug in it cannot hide behind a second implementation.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError
from .fields import FieldSpec, Scalar

SparseColumn = list  # list[tuple[int, Scalar]], rows strictly increasing


def axpy(field: FieldSpec, target: SparseColumn, c: Scalar, source: SparseColumn) -> SparseColumn:
    """Return ``target + c * source`` in canonical form (columns are not mutated)."""
    if field.is_zero(c) or not source:
        return list(target)
    out = []
    i = j = 0
    nt, ns = len(target), len(source)
    while i < nt and j < ns:
        ri, rj = target[i][0], source[j][0]
        if ri < rj:
            out.append(target[i])
            i += 1
        elif rj < ri:
            out.append((rj, field.mul(c, source[j][1])))
            j += 1
        else:
            v = field.add(target[i][1], field.mul(c, source[j][1]))
            if not field.is_zero(v):
                out.append((ri, v))
            i += 1
            j += 1
    out.extend(target[i:])
    for rj, vj in source[j:]:
        out.append((rj, field.mul(c, vj)))
    return out


def scale(field: FieldSpec, col: SparseColumn, c: Scalar) -> SparseColumn:
    if field.is_zero(c):
        return []
    return [(r, field.mul(c, v)) for r, v in col]


def column_from_entries(field: FieldSpec, entries) -> SparseColumn:
    """Canonicalize arbitrary (row, coeff) pairs: sum duplicates, sort, drop zeros."""
    acc: dict[int, Scalar] = {}
    for r, v in entries:
        v = field.normalize(v)
        if r in acc:
            acc[r] = field.add(acc[r], v)
        else:
            acc[r] = v
    return [(r, acc[r]) for r in sorted(acc) if not field.is_zero(acc[r])]


@dataclass(frozen=True)
class SparseMatrix:
    n_rows: int
    columns: list  # list[SparseColumn]

    def __post_init__(self):
        for col in self.columns:
            prev = -1
            for r, _ in col:
                if not 0 <= r < self.n_rows:
                    raise UsageError(f"row {r} out of range for {self.n_rows} rows")
                if r <= prev:
                    raise UsageError("column rows must be strictly increasing")
                prev = r

    @property
    def n_cols(self) -> int:
        return len(self.columns)


class ColumnReducer:
    """Incremental column reduction with unit pivots.

    ``reduce`` eliminates every entry sitting on a recorded pivot row; the
    result therefore lies in the complement of the recorded span.  Stored
    pivot columns have their maximal row as pivot with coefficient 1, so an
    elimination only introduces entries strictly below the eliminated row
    and the loop terminates.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self.pivots: dict[int, SparseColumn] = {}

    def reduce(self, col: SparseColumn) -> SparseColumn:
        field = self.field
        pivots = self.pivots
        while col:
            hit = None
            for idx in range(len(col) - 1, -1, -1):
                r, v = col[idx]
                if r in pivots:
                    hit = (r, v)
                    break
            if hit is None:
                return col
            col = axpy(field, col, field.neg(hit[1]), pivots[hit[0]])
        return col

    def add_pivot(self, col: SparseColumn) -> int:
        """Record a reduced, nonzero column; returns its pivot row."""
        row, lead = col[-1]
        if not self.field.is_zero(self.field.sub(lead, self.field.one)):
            col = scale(self.field, col, self.field.inv(lead))
        self.pivots[row] = col
        return row


def rank(m: SparseMatrix, field: FieldSpec) -> int:
    red = ColumnReducer(field)
    r = 0
    for col in m.columns:
        reduced = red.reduce(col)
        if reduced:
            red.add_pivot(reduced)
            r += 1
    return r


def kernel(m: SparseMatrix, field: FieldSpec) -> SparseMatrix:
    """Basis of the kernel, as combination vectors over the column indices.

    Column j is reduced with its combination vector appended as the entry
    ``(j - n_cols, one)`` on a row below the matrix, where no pivot can sit;
    eliminations then carry the combination along.  A column reducing to
    those rows alone is a kernel vector.  Columns are processed left to
    right, so each vector ends in ``(j, one)`` and is supported on earlier
    indices otherwise: kernel bases are prefix-adapted to any ordering the
    caller baked into the columns.
    """
    n_cols = m.n_cols
    red = ColumnReducer(field)
    out = []
    for j, col in enumerate(m.columns):
        reduced = red.reduce([(j - n_cols, field.one)] + col)
        if reduced[-1][0] < 0:
            out.append([(r + n_cols, v) for r, v in reduced])
        else:
            red.add_pivot(reduced)
    return SparseMatrix(n_cols, out)
