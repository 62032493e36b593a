"""Filtered chain complexes over an exact field.

A complex stores its generators per homological degree, each carrying an
integer filtration level, plus one sparse boundary column per generator
written over the generators one degree below.  Two semantic invariants are
enforced by :meth:`FilteredChainComplex.validate`:

* every boundary entry stays at or below its source's filtration level
  (the differential preserves the filtration), and
* the composite of consecutive boundary maps vanishes.

The second check sums d(d(g)) for each generator g in one dict from row to
int.  Over GF(p) it adds plain residue products and reduces each row mod p
once, at the end; over Q it works in the integer columns of
:func:`~spectra_persist.linalg.integral`, with the entries of d(g) scaled to
a common denominator, so no ``Fraction`` is made.

Only finite presentations are representable, so local finiteness and a
lower bound on the filtration hold automatically.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InvalidComplexError, UsageError
from .fields import FieldSpec, RationalField
# axpy is not called here; it stays bound because perfbench's tracer wraps it by name
from .linalg import (SparseColumn, SparseMatrix, axpy, column_from_entries,
                     integral, rank)


@dataclass(frozen=True)
class Generator:
    gid: int
    degree: int
    filtration: int
    name: Optional[str] = None

    def label(self) -> str:
        return self.name if self.name is not None else f"g{self.degree}_{self.gid}"


@dataclass(frozen=True)
class Violation:
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
                    field.check(v)
            self.boundary[n] = cols
        for n, gens in self.generators.items():
            self.boundary.setdefault(n, [[] for _ in gens])
        self._violations: Optional[list[Violation]] = None
        self._ranks: dict[int, int] = {}  # n -> rank of d_n, like _violations

    @classmethod
    def empty(cls, field: FieldSpec) -> "FilteredChainComplex":
        return cls(field, {}, {})

    @classmethod
    def from_named(
        cls,
        field: FieldSpec,
        gens: Iterable[tuple[str, int, int]],
        boundaries: Mapping[str, Sequence[tuple]] = (),
    ) -> "FilteredChainComplex":
        """Build from (name, degree, filtration) triples and name-keyed boundaries.

        Boundary values are sequences of (coeff, target_name); coefficients
        are normalized into the field.
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
            boundary[src.degree][src.gid] = column_from_entries(field, resolved)
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
                            f"boundary target {tgt.label()} at level {tgt.filtration} "
                            f"exceeds source level {g.filtration}",
                        ))
        # d∘d of each column is summed in one dict of ints (module docstring)
        p = None if isinstance(self.field, RationalField) else self.field.p
        for n in self.degrees():
            if n - 1 not in self.generators:
                continue
            cols = self.boundary[n - 1]
            if p is None:
                scaled = [integral(col) for col in cols]
                cols = [m for _, m in scaled]
            for g in self.generators[n]:
                col = self.boundary[n][g.gid]
                if p is None:  # d(g) times the common denominator of its terms
                    dens = [v.denominator * scaled[r][0] for r, v in col]
                    common = lcm(*dens)
                    col = [(r, v.numerator * (common // d)) for (r, v), d in zip(col, dens)]
                acc: dict[int, int] = {}
                for r, v in col:
                    for q, w in cols[r]:
                        acc[q] = acc.get(q, 0) + v * w
                sums = acc.values() if p is None else (x % p for x in acc.values())
                if any(sums):
                    out.append(Violation(n, g.gid, f"d∘d ≠ 0 at generator {g.label()}"))
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
        graded: dict[int, list[SparseColumn]] = {}
        for n in self.degrees():
            below = self.gens(n - 1)
            graded[n] = [
                [(r, v) for r, v in self.boundary[n][g.gid]
                 if below[r].filtration == g.filtration]
                for g in self.generators[n]
            ]
        return FilteredChainComplex(self.field, self.generators, graded)

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
    """Per-(degree, level) homology of a level-graded complex.

    Requires every boundary entry to stay inside its own filtration level
    (as produced by :meth:`FilteredChainComplex.associated_graded`); the
    complex then splits as a direct sum over levels and homology can be
    computed blockwise.  Returns a dim for every (degree, level) holding a
    generator; absent keys are zero.
    """
    c.ensure_valid()
    # per degree: level -> boundary columns of the generators at that level
    blocks: dict[int, dict[int, list[SparseColumn]]] = {}
    for n in c.degrees():
        below = c.gens(n - 1)
        by_level = blocks[n] = {}
        for g in c.gens(n):
            col = c.column(n, g.gid)
            if any(below[r].filtration != g.filtration for r, _ in col):
                raise UsageError("complex is not level-graded")
            by_level.setdefault(g.filtration, []).append(col)

    dims: dict[tuple[int, int], int] = {}
    for n, by_level in blocks.items():
        n_below = c.n_gens(n - 1)
        n_here = c.n_gens(n)
        in_blocks = blocks.get(n + 1, {})
        for s, out_cols in by_level.items():
            r_out = rank(SparseMatrix(n_below, out_cols), c.field)
            r_in = rank(SparseMatrix(n_here, in_blocks.get(s, [])), c.field)
            dims[(n, s)] = len(out_cols) - r_out - r_in
    return dims
