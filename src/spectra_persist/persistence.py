"""Interval decomposition of a filtered chain complex.

Per homological degree, generators are visited by nondecreasing filtration
level (ties by id) and their boundary columns are reduced against the
pivots recorded so far.  A column that dies yields an essential candidate;
a surviving column is paired with the generator sitting at its entry of
maximal filtration level (ties by maximal id), the gap between the two
levels being the bar's lifetime.  Pairs whose two ends share a level carry
no homology; they are cancelled from the barcode but kept in the pairing
as diagnostics.

The resulting barcode is independent of input order and of the tie-break;
the pairing and its cycle witnesses are not.

Most columns of the top degree reduce to zero, and a bound skips many of
them unreduced.  A reduced column of d_n is a boundary, so a cycle, and
the rows of d_n are in the order the columns of d_(n-1) were reduced,
(filtration, id).  So the pivot row of a nonzero reduced column is an
open positive row: a generator whose own column of d_(n-1) reduced to
zero and that no earlier column of d_n has paired, i.e. one still among
the essential candidates.  This is the lemma behind clearing (Chen &
Kerber, "Persistent homology computation with a twist", EuroCG 2011;
Bauer, Kerber & Reininghaus, "Clear and Compress", 2014).  A column whose
last row comes before the first open row therefore reduces to zero and is
skipped; the first open row only moves forward.  The bound needs d∘d = 0,
which ``ensure_valid`` checks first, and that shared order of rows.

Each degree's generators are put in (filtration, id) order once, and that
one order serves as the columns of d_n and the rows of d_(n+1).  Where the
ids already run in it, as in every complex ``serialize_complex`` or the
``rips`` command writes once read back, the stored columns are reduced as
they are, with no reindexed copy; otherwise each column is reindexed
through a position list and sorted.  Which generators are paired is one
bytearray of flags per degree, and the barcode is counted on plain
tuples, so one ``BarEntry`` is made per distinct bar.

Every field runs that one column path, and only the reducer differs (see
``linalg``): each one's ``reduce`` takes the sorted ``(row, coeff)`` list and
converts it to its own form, so a column the bound skips is never converted.

``BarEntry``, ``Pair`` and ``Pairing`` are ``NamedTuple`` records; a
``BarEntry`` checks its lifetime however it is made.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import pairwise
from typing import NamedTuple, Sequence, Union

from .complexes import FilteredChainComplex, Generator
from .errors import UsageError, shorten
from .fields import RationalField, checked
from .linalg import BitReducer, ColumnReducer, SparseColumn

INF = math.inf

Lifetime = Union[int, float]  # positive int, or math.inf


@checked
class BarEntry(NamedTuple("BarEntry", [("degree", int), ("birth", int),
                                       ("lifetime", Lifetime)])):
    """A bar: born at level ``birth`` in ``degree``, alive for ``lifetime`` levels.

    Tuple order is the barcode's order: by degree, then birth, then
    lifetime, with ``inf`` after every finite lifetime.
    """
    __slots__ = ()

    def __new__(cls, degree: int, birth: int, lifetime: Lifetime):
        if not (lifetime == INF or (isinstance(lifetime, int) and lifetime >= 1)):
            raise UsageError(f"lifetime must be a positive integer or inf, got {lifetime!r}")
        return super().__new__(cls, degree, birth, lifetime)

    @property
    def is_essential(self) -> bool:
        return self.lifetime == INF


class Barcode:
    """Multiset of bars with positive multiplicities."""

    def __init__(self, counts=None):
        self._counts: Counter = Counter()
        if counts:
            for entry, mult in dict(counts).items():
                if not isinstance(entry, BarEntry):
                    raise UsageError(f"expected BarEntry, got {entry!r}")
                if mult < 0:
                    raise UsageError(f"negative multiplicity for {entry}")
                if mult:
                    self._counts[entry] = mult

    def entries(self) -> list[tuple[BarEntry, int]]:
        return sorted(self._counts.items())

    def count(self, entry: BarEntry) -> int:
        return self._counts.get(entry, 0)

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Barcode) and self._counts == other._counts

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({e.degree},{e.birth},{'inf' if e.is_essential else e.lifetime})x{m}"
            for e, m in self.entries()
        )
        return f"Barcode[{inner}]"


class Pair(NamedTuple):
    """A reduction pair: d(death) hits `birth` after a lifetime-level gap.

    `cycle` is the reduced boundary of `death` (unit coefficient at the
    birth generator's row), written over the generators one degree below.
    No command reads it, so a pair keeps `pivot` in the form `reducer`
    stored it, and `reducer.scalars` builds a new `cycle` list, in field
    scalars, each time it is read.
    """
    death: Generator
    birth: Generator
    lifetime: int
    pivot: Union[SparseColumn, int, tuple]  # as stored by `reducer`, over positions in `rows`
    rows: Sequence[int]      # position -> gid, one degree below
    reducer: Union[ColumnReducer, BitReducer]

    @property
    def cycle(self) -> SparseColumn:
        return sorted((self.rows[p], v) for p, v in self.reducer.scalars(self.pivot))

    @property
    def cancelled(self) -> bool:
        # equal-level pairs contribute no homology
        return self.lifetime == 0


class Pairing(NamedTuple):
    essentials: list  # list[Generator]
    pairs: list       # list[Pair]


def _level_order(gens: list) -> Sequence[int]:
    """The ids of ``gens`` in (filtration, id) order; a range when that is their order."""
    if all(a.filtration <= b.filtration for a, b in pairwise(gens)):
        return range(len(gens))
    return sorted(range(len(gens)), key=lambda i: gens[i].filtration)  # stable: ties by id


def decompose(c: FilteredChainComplex) -> tuple[Pairing, Barcode]:
    """Reduce the complex into essential generators and pairs, plus its barcode."""
    c.ensure_valid()
    field = c.field
    over_q = isinstance(field, RationalField)
    if over_q:
        from .signs import SignReducer  # only this field runs it (see its module)
    # one order per degree: the columns of d_n and the rows of d_(n+1)
    orders = {n: _level_order(c.gens(n)) for n in c.degrees()}
    # paired[n][gid] is 1 once generator gid of degree n is paired
    paired = {n: bytearray(len(order)) for n, order in orders.items()}

    pairs: list[Pair] = []
    for n, order in orders.items():
        rows = orders.get(n - 1)
        if not rows:
            continue
        gens, targets, columns = c.gens(n), c.gens(n - 1), c.boundary[n]
        done, closed = paired[n], paired[n - 1]
        # the pivot of a column over rows in (filtration, id) order is simply
        # its last entry; rows already in that order are used as stored
        position = None
        if type(rows) is not range:
            position = [0] * len(rows)
            for k, gid in enumerate(rows):
                position[gid] = k
        reducer = SignReducer() if over_q else BitReducer() if field.p == 2 else ColumnReducer(field)
        open_row = 0  # first row still an essential candidate (module docstring)
        for gid in order:
            col = columns[gid]
            if position is not None:
                col = sorted([(position[r], v) for r, v in col])
            while open_row < len(rows) and closed[rows[open_row]]:
                open_row += 1
            if not col or col[-1][0] < open_row:
                continue  # reduces to zero: the generator stays an essential candidate
            col = reducer.reduce(col)
            if not col:
                continue  # the generator stays an essential candidate
            pivot_pos = reducer.add_pivot(col)
            w, birth = gens[gid], targets[rows[pivot_pos]]
            done[gid] = closed[birth.gid] = 1
            pairs.append(Pair(w, birth, w.filtration - birth.filtration,
                              reducer.pivots[pivot_pos], rows, reducer))

    essentials = [g for n in orders for g, f in zip(c.gens(n), paired[n]) if not f]
    # one BarEntry per distinct bar
    counts = Counter((g.degree, g.filtration, INF) for g in essentials)
    counts.update((p.birth.degree, p.birth.filtration, p.lifetime)
                  for p in pairs if not p.cancelled)
    barcode = Barcode({BarEntry(*bar): mult for bar, mult in counts.items()})
    return Pairing(essentials, pairs), barcode


def betti(b: Barcode, n: int, i: int, j: int) -> int:
    """Persistent Betti number: bars of degree n alive over [i, j]."""
    if i > j:
        raise UsageError(
            f"betti requires i <= j, got i={shorten(str(i))}, j={shorten(str(j))}")
    total = 0
    for entry, mult in b.entries():
        if entry.degree != n or entry.birth > i:
            continue
        if entry.is_essential or entry.birth + entry.lifetime > j:
            total += mult
    return total


def multiplicity(b: Barcode, n: int, i: int, j: Lifetime) -> int:
    """Bars of degree n born at i and dying at j (j = inf for essentials)."""
    if j == INF:
        return b.count(BarEntry(n, i, INF))
    if i >= j:
        raise UsageError(f"multiplicity requires i < j, got i={i}, j={j}")
    return b.count(BarEntry(n, i, j - i))
