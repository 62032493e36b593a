"""Sparse exact linear algebra over a field.

Columns are sorted lists of ``(row, coeff)`` with strictly increasing rows
and no stored zeros.  Everything works column-at-a-time through a reducer
that keeps a map from pivot row to an already-reduced column and
eliminates every entry a column has on a pivot row.  ``rank`` counts the
columns that survive :class:`ColumnReducer`; ``kernel`` runs it on columns
extended by their combination vectors, so no second elimination is needed
to track them.  It also drives the direct page engine, and the persistence
pairing over GF(p) for odd p.

Over GF(2) the persistence pairing runs :class:`BitReducer` instead, and
over Q :class:`~spectra_persist.signs.SignReducer`, in a module of its own
that only that pairing loads.  The three reducers share one contract:
``reduce`` takes a sorted ``(row, coeff)`` list and converts it to the
reducer's own form, which ``add_pivot`` stores and ``scalars`` reads back.
``BitReducer`` holds ``int`` bitsets (bit r set for an entry on row r), so
the pivot row is a ``bit_length`` and an elimination one XOR (the column
representation of PHAT, Bauer, Kerber, Reininghaus & Wagner, JSC 2017, and
of Ripser, Bauer, JACT 2021); ``SignReducer`` is a :class:`ColumnReducer`
over Q that holds a ±1 column as two, one per sign.  ``rank``,
``kernel`` and the direct page engine stay on the list kernel on purpose:
``verify`` compares the barcode's page table with the direct engine's and
the homology ranks.  Over GF(2) the two sides share no reduction code, and
over Q only the list loop a rare column falls back to, so a bug in either
reducer shows as a failed check instead of bending both tables alike.  All
three reducers raise on a step that does not move down a row, so a broken
pivot fails at once instead of looping.

One loop, ``ColumnReducer._reduce``, does every elimination on a list
column, for every field, ``SignReducer``'s lists included: it scans the
column from the top for its highest entry on a pivot row and clears it,
until there is none.  The field decides only that clearing step,
``_step``, which ``__init__`` sets once: it is the one slot where a field's
kernel plugs in.  Over GF(p) the step is :func:`axpy` on canonical
residues: they are already small ints, so there is no ``Fraction`` cost to
remove, and ``perfbench`` traces and counts the field calls made there.
Over Q columns are primitive integer vectors and the step is
:func:`_int_eliminate`, ``col <- a*col - b*pivot`` with ``a/b`` the pivot's
lead over the hit entry in lowest terms, then divided by their content, so
no ``Fraction`` is made while reducing.  Because the elimination is
exhaustive, every reduced column is the Fraction one up to a nonzero
scalar; :meth:`ColumnReducer.scalars` turns a column back into field
scalars with a unit lead where a caller reads it.  The rest of the column
code that depends on the field is here too: :func:`canonical`, for the
text reader and ``from_named``, and :func:`nonzero_composites`, the d∘d
sum of ``complexes``, whose docstring says how each field sums it.
"""
from __future__ import annotations

from math import gcd, inf, lcm
from typing import NamedTuple

from .errors import UsageError
from .fields import FieldSpec, RationalField, Scalar, checked

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


def _int_eliminate(col: list, v: int, pivot: list) -> list:
    """Clear the entry ``v`` of a primitive ``col`` on ``pivot``'s lead row."""
    lead = pivot[-1][1]
    g = gcd(lead, v)
    a = lead // g
    if a != 1:
        col = [(r, a * x) for r, x in col]
    return _primitive(_int_axpy(col, -(v // g), pivot))


def canonical(field: FieldSpec, col: list, zeros: bool) -> SparseColumn:
    """``col`` sorted by row in place, with repeated rows summed and zeros
    dropped; ``zeros`` tells whether a coefficient in it may be zero."""
    col.sort()
    prev = -1
    for r, _ in col:
        if r == prev:
            break
        prev = r
    else:
        if not zeros:
            return col  # distinct rows, no zero: sorting made it canonical
    out: list = []
    for r, v in col:
        if out and out[-1][0] == r:
            v = field.add(out.pop()[1], v)
        out.append((r, v))
    return [(r, v) for r, v in out if not field.is_zero(v)]


def nonzero_composites(field: FieldSpec, outer_cols: list, inner_cols: list):
    """Yield the index of each column of ``outer_cols`` whose composite with
    ``inner_cols`` is nonzero; outer rows index the inner columns.

    No ``Fraction`` is made.  Over GF(2) each inner column becomes an ``int``
    bitset once, and each composite is the XOR of the bitsets its outer
    column names.  Otherwise each composite is summed in one dict from row to
    int.  Over odd GF(p) it adds plain residue products and reduces each row
    mod p once, at the end.  Over Q the entries choose the path.  When every
    entry of both sides has denominator 1 (an ``int``, as the text reader
    keeps a whole coefficient, answers that in C; a whole ``Fraction`` does
    too), each entry is its numerator and the sum is the GF(p) one without
    the reduction: the inner columns are copied as numerators once, and an
    outer entry's numerator is read where the sum reaches it, so no outer
    column is copied.  Otherwise it works in the integer columns of
    :func:`integral`, with the entries of the outer column scaled to a
    common denominator.
    """
    p = None if isinstance(field, RationalField) else field.p
    if p == 2:
        yield from _xor_composites(outer_cols, inner_cols)
        return
    rescale = p is None and not all(v.denominator == 1 for cols in (outer_cols, inner_cols)
                                    for col in cols for _, v in col)
    if rescale:
        scaled = [integral(col) for col in inner_cols]
        inner_cols = [m for _, m in scaled]
    elif p is None:
        inner_cols = [[(q, w.numerator) for q, w in col] for col in inner_cols]
    for j, col in enumerate(outer_cols):
        if rescale:  # the outer column times the common denominator of its terms
            dens = [v.denominator * scaled[r][0] for r, v in col]
            common = lcm(*dens)
            col = [(r, v.numerator * (common // d)) for (r, v), d in zip(col, dens)]
        acc: dict[int, int] = {}
        for r, v in col:
            v = v.numerator  # the entry itself for an int, read in place for a whole Fraction
            for q, w in inner_cols[r]:
                acc[q] = acc.get(q, 0) + v * w
        sums = acc.values() if p is None else (x % p for x in acc.values())
        if any(sums):
            yield j


def bitset(col: SparseColumn) -> int:
    """A GF(2) column, its rows in any order, as an ``int`` with bit r set
    where the column is one on row r."""
    bits = 0
    for r, v in col:
        bits |= v << r
    return bits


def _xor_composites(outer_cols: list, inner_cols: list):
    """:func:`nonzero_composites` over GF(2): each inner column as a bitset,
    each composite the XOR of the bitsets its outer column's entries name."""
    inner = [bitset(col) for col in inner_cols]
    for j, col in enumerate(outer_cols):
        bits = 0
        for r, v in col:
            if v:
                bits ^= inner[r]
        if bits:
            yield j


@checked
class SparseMatrix(NamedTuple("SparseMatrix", [("n_rows", int), ("columns", list)])):
    __slots__ = ()  # columns: list[SparseColumn]

    def __new__(cls, n_rows: int, columns: list):
        for col in columns:
            prev = -1
            for r, _ in col:
                if not 0 <= r < n_rows:
                    raise UsageError(f"row {r} out of range for {n_rows} rows")
                if r <= prev:
                    raise UsageError("column rows must be strictly increasing")
                prev = r
        return super().__new__(cls, n_rows, columns)

    @property
    def n_cols(self) -> int:
        return len(self.columns)


def _stuck(row: int) -> RuntimeError:
    """The error of a reduction that hits ``row`` after a row no higher: a
    stored pivot whose lead is not its last entry, or that its step does not
    clear, would otherwise send the loop round forever."""
    return RuntimeError(f"column reduction hit row {row} at or above the row it "
                        f"cleared last: a stored pivot is broken")


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

        def step(col, v, pivot):  # axpy by its global name, which perfbench's tracer wraps
            return axpy(field, col, field.neg(v), pivot)
        self._step = _int_eliminate if self._integral else step  # the field's kernel

    def reduce(self, col: SparseColumn) -> SparseColumn:
        """Eliminate every entry of ``col`` on a pivot row (over Q, as integers)."""
        if self._integral:
            col = _primitive(integral(col)[1])
        return self._reduce(col, inf)

    def _reduce(self, col: SparseColumn, above) -> SparseColumn:
        """The one loop: ``_step`` clears each hit, strictly below row ``above``."""
        pivots, step = self.pivots, self._step
        while col:
            for idx in range(len(col) - 1, -1, -1):
                r, v = col[idx]
                if r in pivots:
                    break
            else:
                return col
            if r >= above:
                raise _stuck(r)
            above = r
            col = step(col, v, pivots[r])
        return col

    def add_pivot(self, col: SparseColumn) -> int:
        """Record a reduced, nonzero column; returns its pivot row."""
        row, lead = col[-1]
        if self._integral:
            # a positive lead makes a = 1 whenever it divides the hit entry
            if lead < 0:
                col = [(r, -v) for r, v in col]
        elif lead != 1:
            field = self.field
            c = field.inv(lead)
            col = [(r, field.mul(c, v)) for r, v in col]
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
        lead, fraction = col[-1][1], type(RationalField.one)  # Q's one is a Fraction
        return [(r, fraction(v, lead)) for r, v in col]


class BitReducer:
    """:class:`ColumnReducer` over GF(2), with columns held as ``int`` bitsets.

    ``reduce`` takes a sorted ``(row, 1)`` list, as the other reducers do, and
    converts it with :func:`bitset`.  It finds the highest entry on a pivot
    row as the top bit of the column and the mask of pivot rows, and clears
    it by XOR with that row's pivot; a stored pivot is its own unit-lead
    scalar column.  :meth:`scalars` gives a bitset's ``(row, 1)`` list.
    """

    def __init__(self):
        self.pivots: dict[int, int] = {}
        self._mask = 0  # bit r set when row r is a pivot row

    def reduce(self, col: SparseColumn) -> int:
        """Clear every entry of ``col`` on a pivot row; the result is a bitset."""
        col = bitset(col)
        pivots, mask = self.pivots, self._mask
        above = col.bit_length()  # each row hit lies strictly below the one hit before it
        hit = col & mask
        while hit:
            row = hit.bit_length() - 1
            if row >= above:
                raise _stuck(row)
            above = row
            col ^= pivots[row]
            hit = col & mask
        return col

    def add_pivot(self, col: int) -> int:
        """Record a reduced, nonzero column; returns its pivot row."""
        row = col.bit_length() - 1
        self.pivots[row] = col
        self._mask |= 1 << row
        return row

    @staticmethod
    def scalars(col: int) -> SparseColumn:
        """A bitset as a ``(row, 1)`` column, rows increasing."""
        return [(r, 1) for r, bit in enumerate(bin(col)[:1:-1]) if bit == "1"]


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
