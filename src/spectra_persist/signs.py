"""The persistence pairing's reducer over Q, on sign bitsets.

Every simplicial boundary has ``int`` ±1 entries, and reducing such
columns mostly leaves them so.  :class:`SignReducer` holds each as the
bitsets of its rows at 1 and at -1, so finding a pivot row and eliminating
take a few ``int`` operations, as :class:`~spectra_persist.linalg.BitReducer`
does over GF(2).  Any other column goes on as a primitive integer list
through the elimination step of :class:`~spectra_persist.linalg.ColumnReducer`.

Only ``decompose`` over Q imports this module, so a process over GF(p)
compiles none of it, and a Q process compiles it after its input is read.
Compiling it as part of ``linalg`` made that the largest module every
command compiles, and raised each process's peak memory with it.
"""
from __future__ import annotations

from math import inf

from .linalg import (BitReducer, SparseColumn, _int_eliminate, _primitive, _stuck, _unit_lead,
                     integral)


def _signs(col: SparseColumn):
    """``(pos, neg)``, the bitsets of the rows where ``col`` is the ``int`` 1
    and -1, or ``None`` once an entry is anything else."""
    pos = neg = 0
    for r, v in col:
        if type(v) is not int:
            return None
        if v == 1:
            pos |= 1 << r
        elif v == -1:
            neg |= 1 << r
        else:
            return None
    return pos, neg


def _sign_list(pos: int, neg: int) -> list:
    """The integer column of the sign bitsets ``pos`` and ``neg``."""
    return sorted(BitReducer.scalars(pos) + [(r, -1) for r, _ in BitReducer.scalars(neg)])


class SignReducer:
    """``ColumnReducer`` over Q, with each ``int`` ±1 column held as the
    bitsets ``(pos, neg)`` of its rows at 1 and at -1.

    Stored pivots lead with 1, so the step on a column hitting row r is
    ``col ∓ pivots[r]`` in bit operations, found and checked as in
    ``BitReducer``.  A step that would put ±2 on a row, a pivot that is not
    a sign column, and a column that is not one on arrival go on as
    primitive integer lists through ``_int_eliminate``, as in
    ``ColumnReducer``; :meth:`scalars` reads either form.
    """

    def __init__(self):
        self.pivots: dict = {}  # row -> (pos, neg), or a primitive integer list
        self._mask = 0  # bit r set when row r is a pivot row

    def reduce(self, col: SparseColumn):
        """Eliminate every entry of ``col`` on a pivot row; ``[]`` when none is left."""
        signs = _signs(col)
        if signs is None:
            return self._reduce_list(_primitive(integral(col)[1]), inf)
        pos, neg = signs
        pivots, mask = self.pivots, self._mask
        above = (pos | neg).bit_length()  # each row hit lies strictly below the one before
        hit = (pos | neg) & mask
        while hit:
            row = hit.bit_length() - 1
            if row >= above:
                raise _stuck(row)
            pivot = pivots[row]
            if neg >> row & 1:
                pos, neg = neg, pos  # -col leads with 1 on row too
            if type(pivot) is list or pos & pivot[1] or neg & pivot[0]:
                return self._reduce_list(_sign_list(pos, neg), above)
            ppos, pneg = pivot
            cut = pos & ppos | neg & pneg  # the rows where col - pivot cancels
            pos, neg = (pos | pneg) ^ cut, (neg | ppos) ^ cut
            above = row
            hit = (pos | neg) & mask
        return (pos, neg) if pos | neg else []

    def _reduce_list(self, col: list, above) -> list:
        """:meth:`reduce` on a primitive integer column, below row ``above``."""
        pivots = self.pivots
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
            pivot = pivots[r]
            col = _int_eliminate(col, v, pivot if type(pivot) is list else _sign_list(*pivot))
        return col

    def add_pivot(self, col) -> int:
        """Record a reduced, nonzero column, with a lead of 1 (a sign column
        when it is one); returns its pivot row."""
        if type(col) is list:
            if col[-1][1] < 0:
                col = [(r, -v) for r, v in col]
            col = _signs(col) or col
        if type(col) is tuple:
            pos, neg = col
            row = (pos | neg).bit_length() - 1
            if neg >> row & 1:
                col = neg, pos
        else:
            row = col[-1][0]
        self.pivots[row] = col
        self._mask |= 1 << row
        return row

    @staticmethod
    def scalars(col) -> SparseColumn:
        """A stored pivot or reduced column in ``Fraction``s, with a unit lead."""
        return _unit_lead(_sign_list(*col) if type(col) is tuple else col)
