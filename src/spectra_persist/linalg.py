"""Sparse exact linear algebra over a field.

Columns are sorted lists of ``(row, coeff)`` with strictly increasing rows
and no stored zeros.  Everything works column-at-a-time through one
reducer, :class:`ColumnReducer`, which keeps a map from pivot row to an
already-reduced column and eliminates every entry a column has on a pivot
row.  ``rank`` counts the columns that survive it; ``kernel`` runs it on
columns extended by their combination vectors, so no second elimination is
needed to track them.  The same reducer drives the persistence pairing and
the direct page engine, so a bug in it cannot hide behind a second
implementation.

The reducer picks its column kernel once, from the field.  Over GF(p) it
eliminates with :func:`axpy` on canonical residues: they are already small
ints, so there is no ``Fraction`` cost to remove, and ``perfbench`` traces
and counts the field calls made there.  Over Q it holds columns as primitive integer vectors,
``col <- a*col - b*pivot`` with ``a/b`` the pivot's lead over the hit entry
in lowest terms, then divided by their content, so no ``Fraction`` is made
while reducing.  Because the elimination is exhaustive, every reduced
column is the Fraction one up to a nonzero scalar; :meth:`ColumnReducer.
scalars` turns a column back into field scalars with a unit lead where a
caller reads it.  The d∘d check in ``complexes`` sums over Q in the same
integer columns, made by :func:`integral`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import UsageError
from .fields import FieldSpec, RationalField, Scalar

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


def _int_axpy(target: list, c: int, source: list) -> list:
    """``target + c * source`` for integer columns; ``c`` is nonzero."""
    out = []
    i = j = 0
    nt, ns = len(target), len(source)
    while i < nt and j < ns:
        ri, vi = target[i]
        rj, vj = source[j]
        if ri < rj:
            out.append(target[i])
            i += 1
        elif rj < ri:
            out.append((rj, c * vj))
            j += 1
        else:
            v = vi + c * vj
            if v:
                out.append((ri, v))
            i += 1
            j += 1
    out.extend(target[i:])
    for rj, vj in source[j:]:
        out.append((rj, c * vj))
    return out


def integral(col: SparseColumn) -> tuple[int, list]:
    """``(d, m)`` with ``m = d * col`` an integer column, d the lcm of denominators."""
    d = lcm(*[v.denominator for _, v in col])
    return d, [(r, v.numerator * (d // v.denominator)) for r, v in col]


def _primitive(col: list) -> list:
    """An integer column divided by the gcd of its entries."""
    if not col or col[-1][1] in (1, -1):
        return col
    g = gcd(*[v for _, v in col])
    return col if g == 1 else [(r, v // g) for r, v in col]


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
    """Incremental column reduction.

    ``reduce`` eliminates every entry sitting on a recorded pivot row; the
    result therefore lies in the complement of the recorded span, and is
    unique up to a nonzero scalar whatever the order of eliminations.  A
    stored pivot column has its maximal row as pivot, so an elimination
    only introduces entries strictly below the eliminated row and the loop
    terminates.  Over GF(p) pivots are stored with coefficient 1 there;
    over Q columns are primitive integer vectors (see the module
    docstring), pivots stored with a positive lead, and :meth:`scalars`
    converts them back.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self.pivots: dict[int, SparseColumn] = {}
        self._integral = isinstance(field, RationalField)

    def reduce(self, col: SparseColumn) -> SparseColumn:
        """Eliminate every entry of ``col`` on a pivot row (over Q, as integers)."""
        if self._integral:
            return self._reduce_integral(col)
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

    def _reduce_integral(self, col: SparseColumn) -> list:
        col = _primitive(integral(col)[1])
        pivots = self.pivots
        while col:
            for idx in range(len(col) - 1, -1, -1):
                r, v = col[idx]
                if r in pivots:
                    break
            else:
                return col
            pivot = pivots[r]
            lead = pivot[-1][1]
            g = gcd(lead, v)
            a = lead // g
            if a != 1:
                col = [(r, a * x) for r, x in col]
            col = _primitive(_int_axpy(col, -(v // g), pivot))
        return col

    def add_pivot(self, col: SparseColumn) -> int:
        """Record a reduced, nonzero column; returns its pivot row."""
        row, lead = col[-1]
        if self._integral:
            # a positive lead makes a = 1 whenever it divides the hit entry
            if lead < 0:
                col = [(r, -v) for r, v in col]
        elif not self.field.is_zero(self.field.sub(lead, self.field.one)):
            col = scale(self.field, col, self.field.inv(lead))
        self.pivots[row] = col
        return row

    def scalars(self, col: SparseColumn) -> SparseColumn:
        """A stored pivot or reduced column in field scalars, with a unit lead.

        Over GF(p) the reducer's columns are already field scalars, and the
        ones callers read (stored pivots, kernel vectors) already lead with
        one, so they are returned as they are.
        """
        if not self._integral:
            return col
        lead = col[-1][1]
        return [(r, Fraction(v, lead)) for r, v in col]


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
            out.append([(r + n_cols, v) for r, v in red.scalars(reduced)])
        else:
            red.add_pivot(reduced)
    return SparseMatrix(n_cols, out)
