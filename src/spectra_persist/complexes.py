"""Filtered chain complexes over an exact field.

A complex stores its generators per homological degree, each carrying an
integer filtration level, plus one sparse boundary column per generator
written over the generators one degree below.  Two semantic invariants are
enforced by :meth:`FilteredChainComplex.validate`:

* every boundary entry stays at or below its source's filtration level
  (the differential preserves the filtration), and
* the composite of consecutive boundary maps vanishes.

The second check is :func:`~spectra_persist.linalg.nonzero_composites`,
which sums d(d(g)) exactly over GF(p) and Q; this module only names the
generators it reports.

:func:`homology_dims_by_level` reads the level blocks of the associated
graded complex straight off a complex's columns, with no graded copy built,
and ranks them with one reducer per degree.

Only finite presentations are representable, so local finiteness and a
lower bound on the filtration hold automatically.
"""
from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import InvalidComplexError, UsageError, shorten
from .fields import FieldSpec
# axpy is not called here; it stays bound because perfbench's tracer wraps it by name
from .linalg import (ColumnReducer, SparseColumn, SparseMatrix, axpy, canonical,
                     nonzero_composites, rank)


class Generator(NamedTuple):
    gid: int
    degree: int
    filtration: int
    name: Optional[str] = None

    def label(self) -> str:
        return self.name if self.name is not None else f"g{self.degree}_{self.gid}"


class Violation(NamedTuple):
    degree: int
    gid: int
    reason: str

    def __str__(self) -> str:
        return f"degree {self.degree}, generator {self.gid}: {self.reason}"


class FilteredChainComplex:
    def __init__(
        self,
        field: FieldSpec,
        generators: Mapping[int, Sequence[Generator]],
        boundary: Mapping[int, Sequence[SparseColumn]],
    ):
        self.field = field
        self.generators: dict[int, list[Generator]] = {}
        self.boundary: dict[int, list[SparseColumn]] = {}
        for n, gens in generators.items():
            gens = list(gens)
            if not gens:
                continue
            for i, g in enumerate(gens):
                if g.gid != i or g.degree != n:
                    raise UsageError(
                        f"generator ids must be dense per degree; got gid={g.gid} "
                        f"degree={g.degree} at position {i} of degree {n}"
                    )
            self.generators[n] = gens
        for n, cols in boundary.items():
            cols = [list(c) for c in cols]
            if n not in self.generators:
                if any(cols):
                    raise UsageError(f"boundary given for empty degree {n}")
                continue
            if len(cols) != len(self.generators[n]):
                raise UsageError(f"degree {n}: {len(cols)} columns for "
                                 f"{len(self.generators[n])} generators")
            n_below = len(self.generators.get(n - 1, ()))
            for col in cols:
                prev = -1
                for r, v in col:
                    if not 0 <= r < n_below:
                        raise UsageError(f"degree {n}: boundary row {r} out of range")
                    if r <= prev:
                        raise UsageError(f"degree {n}: boundary rows not increasing")
                    prev = r
                    if not field.check(v):
                        raise UsageError(f"degree {n}: boundary row {r} stores a zero coefficient")
            self.boundary[n] = cols
        for n, gens in self.generators.items():
            self.boundary.setdefault(n, [[] for _ in gens])
        self._violations: Optional[list[Violation]] = None
        self._ranks: dict[int, int] = {}  # n -> rank of d_n, like _violations

    @classmethod
    def _adopt(cls, field: FieldSpec, generators: dict[int, list[Generator]],
               boundary: dict[int, list[SparseColumn]]) -> "FilteredChainComplex":
        """The complex of these very dicts, with none of ``__init__``'s copies
        and checks, for a reader whose construction guarantees them."""
        c = cls.__new__(cls)
        c.field, c.generators, c.boundary = field, generators, boundary
        c._violations, c._ranks = None, {}
        return c

    @classmethod
    def from_named(
        cls,
        field: FieldSpec,
        gens: Iterable[tuple[str, int, int]],
        boundaries: Mapping[str, Sequence[tuple]] = (),
    ) -> "FilteredChainComplex":
        """Build from (name, degree, filtration) triples and name-keyed boundaries.

        Boundary values are sequences of (coeff, target_name); coefficients
        are normalized into the field once the source's targets are resolved.
        """
        by_degree: dict[int, list[Generator]] = {}
        lookup: dict[str, Generator] = {}
        for name, degree, filtration in gens:
            if name in lookup:
                raise UsageError(f"duplicate generator name {name!r}")
            g = Generator(len(by_degree.setdefault(degree, [])), degree, filtration, name)
            by_degree[degree].append(g)
            lookup[name] = g
        boundary: dict[int, list[SparseColumn]] = {
            n: [[] for _ in gs] for n, gs in by_degree.items()
        }
        for source, entries in dict(boundaries).items():
            if source not in lookup:
                raise UsageError(f"boundary for unknown generator {source!r}")
            src = lookup[source]
            resolved = []
            for coeff, target in entries:
                if target not in lookup:
                    raise UsageError(f"boundary of {source!r} hits unknown {target!r}")
                tgt = lookup[target]
                if tgt.degree != src.degree - 1:
                    raise UsageError(
                        f"boundary of {source!r} (degree {src.degree}) hits "
                        f"{target!r} of degree {tgt.degree}"
                    )
                resolved.append((tgt.gid, coeff))
            col = [(r, field.normalize(v)) for r, v in resolved]
            boundary[src.degree][src.gid] = canonical(field, col, True)
        return cls(field, by_degree, boundary)

    # -- accessors ---------------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted(self.generators)

    def gens(self, n: int) -> list[Generator]:
        return self.generators.get(n, [])

    def n_gens(self, n: int) -> int:
        return len(self.generators.get(n, ()))

    def total_gens(self) -> int:
        return sum(len(g) for g in self.generators.values())

    def column(self, n: int, gid: int) -> SparseColumn:
        return self.boundary[n][gid]

    def boundary_matrix(self, n: int) -> SparseMatrix:
        """The matrix of d_n: C_n -> C_{n-1} (empty when either degree is)."""
        return SparseMatrix(self.n_gens(n - 1), list(self.boundary.get(n, [])))

    def all_generators(self) -> list[Generator]:
        out = []
        for n in self.degrees():
            out.extend(self.generators[n])
        return out

    @property
    def min_level(self) -> Optional[int]:
        gens = self.all_generators()
        return min(g.filtration for g in gens) if gens else None

    @property
    def max_level(self) -> Optional[int]:
        gens = self.all_generators()
        return max(g.filtration for g in gens) if gens else None

    @property
    def filtration_span(self) -> int:
        if not self.generators:
            return 0
        return self.max_level - self.min_level

    # -- invariants --------------------------------------------------------

    def validate(self) -> list[Violation]:
        if self._violations is not None:
            return self._violations
        out: list[Violation] = []
        for n in self.degrees():
            below = self.gens(n - 1)
            for g in self.generators[n]:
                for r, _ in self.boundary[n][g.gid]:
                    tgt = below[r]
                    if tgt.filtration > g.filtration:
                        out.append(Violation(
                            n, g.gid,
                            f"boundary target {shorten(tgt.label())} at level {tgt.filtration} "
                            f"exceeds source level {g.filtration}",
                        ))
        for n in self.degrees():
            if n - 1 in self.generators:
                gens = self.generators[n]
                out += [Violation(n, gid, f"d∘d ≠ 0 at generator {shorten(gens[gid].label())}")
                        for gid in nonzero_composites(self.field, self.boundary[n],
                                                      self.boundary[n - 1])]
        self._violations = out
        return out

    def ensure_valid(self) -> None:
        violations = self.validate()
        if violations:
            raise InvalidComplexError(violations)

    # -- derived complexes and dimensions -----------------------------------

    def associated_graded(self) -> "FilteredChainComplex":
        """Keep only boundary entries between equal filtration levels."""
        self.ensure_valid()
        graded = {n: self._graded_columns(n) for n in self.degrees()}
        return FilteredChainComplex(self.field, self.generators, graded)

    def _graded_columns(self, n: int) -> list[SparseColumn]:
        """The columns of d_n on Gr C: each of d_n's, less its entries at a lower level."""
        below = self.gens(n - 1)
        return [[(r, v) for r, v in col if below[r].filtration == g.filtration]
                for g, col in zip(self.generators[n], self.boundary[n])]

    def homology_dim(self, n: int) -> int:
        """dim of the n-th homology of the underlying unfiltered complex."""
        self.ensure_valid()
        if n not in self.generators:
            return 0
        return self.n_gens(n) - self._rank(n) - self._rank(n + 1)

    def _rank(self, n: int) -> int:
        """Rank of d_n, computed once per complex."""
        if n not in self._ranks:
            self._ranks[n] = rank(self.boundary_matrix(n), self.field)
        return self._ranks[n]


def homology_dims_by_level(c: FilteredChainComplex) -> dict[tuple[int, int], int]:
    """Per-(degree, level) homology of Gr C, for any valid complex ``c``.

    Gr C (see :meth:`FilteredChainComplex.associated_graded`) splits as a
    direct sum over levels.  Its d_n is read off ``c``'s columns less their
    entries at a lower level, and reduced with one reducer per degree: the
    level-s block's rows are the level-s generators one degree below, so its
    columns only ever meet its own pivots, and each level-s column that
    survives adds one to the rank of that block.  That rank leaves homology
    at (n, s) and at (n-1, s).  An empty column, as every column of the
    lowest degree is, cannot survive, so it is counted without being
    reduced.  Returns a dim for every (degree, level) holding a generator;
    absent keys are zero.
    """
    c.ensure_valid()
    dims: dict[tuple[int, int], int] = {}
    for n in c.degrees():  # rising, so (n-1, s) is counted before d_n reaches it
        reducer = ColumnReducer(c.field)
        for g, col in zip(c.gens(n), c._graded_columns(n)):
            key = (n, g.filtration)
            dims[key] = dims.get(key, 0) + 1
            if col and (col := reducer.reduce(col)):
                reducer.add_pivot(col)
                dims[key] -= 1
                dims[(n - 1, g.filtration)] -= 1
    return dims
