"""Spectral-sequence page dimensions by two independent routes.

``pages_from_barcode`` expands each bar into its closed-form page
contributions: an essential bar (n, s, inf) puts one dimension at (n, s)
on every page; a finite bar (n, s, m) puts one dimension at (n, s) and one
at (n+1, s+m) on pages 1..m and nothing afterwards.

``pages_direct`` never looks at a barcode.  It evaluates the classical
subquotient description of the pages: with

    Z[r, n, s] = { x in F^s C_n : d(x) in F^(s-r) C_(n-1) }    (F^q = 0 below
                                                                the minimum level)

the page dimension is dim of Z[r,n,s] over Z[r-1,n,s-1] + d(Z[r-1,n+1,s+r-1]).
Both summands of the denominator sit inside the numerator, and intersecting
the two summands gives d(Z[r,n+1,s+r-1]), so inclusion-exclusion turns the
cell into pure kernel dimensions:

    dim E[r,n,s] = zeta(r,n,s) - zeta(r-1,n,s-1)
                   - zeta(r-1,n+1,s+r-1) + zeta(r,n+1,s+r-1)

where zeta(r,n,s) = dim Z[r,n,s] = #cols(level <= s) - rank of the boundary
submatrix with those columns and the rows above level s-r.  Each zeta is a
rank computation, grouped so that one reduction sweep per (degree, row cut)
serves every column prefix.  The infinity row comes from images of homology
under inclusion: dim E[inf,n,s] = rank(H_n(F^s) -> H_n(C))
- rank(H_n(F^(s-1)) -> H_n(C)), again via kernel dimensions.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, Optional

from .complexes import FilteredChainComplex, homology_dims_by_level
from .errors import (InconsistentTableError, InsufficientRMaxError, ParseError,
                     UsageError)
from .linalg import ColumnReducer
from .persistence import INF, Barcode, BarEntry, betti, decompose, multiplicity

PageIndex = float  # int >= 1, or math.inf


class PageTable:
    """Dimensions of the pages E^(r) for r = 1..r_max and r = inf.

    Only nonzero cells are stored; absent keys read as zero.  A table is
    immutable, so its row totals are summed once, here.
    """

    def __init__(self, r_max: int, dims: Mapping = ()):
        if not isinstance(r_max, int) or r_max < 1:
            raise UsageError(f"r_max must be a positive integer, got {r_max!r}")
        self.r_max = r_max
        self._dims: dict[tuple[PageIndex, int, int], int] = {}
        self._totals: dict[tuple[PageIndex, int], int] = {}
        for (r, n, s), d in dict(dims).items():
            self._check_r(r)
            if d < 0:
                raise UsageError(f"negative dimension at (r={r}, n={n}, s={s})")
            if d:
                self._dims[(r, n, s)] = d
                self._totals[(r, n)] = self._totals.get((r, n), 0) + d

    def _check_r(self, r: PageIndex) -> None:
        if r == INF:
            return
        if not isinstance(r, int) or not 1 <= r <= self.r_max:
            raise UsageError(f"page index {r!r} outside 1..{self.r_max} and inf")

    def dim(self, r: PageIndex, n: int, s: int) -> int:
        self._check_r(r)
        return self._dims.get((r, n, s), 0)

    def support(self) -> set:
        return {(n, s) for (_, n, s) in self._dims}

    def row_total(self, r: PageIndex, n: int) -> int:
        """Sum of the page-r dimensions over all levels at degree n."""
        self._check_r(r)
        return self._totals.get((r, n), 0)

    def cells(self) -> list[tuple[PageIndex, int, int, int]]:
        """Nonzero cells as (r, n, s, dim), finite pages first, inf row last."""
        def key(item):
            (r, n, s), _ = item
            return (r == INF, r if r != INF else 0, n, s)
        return [(r, n, s, d) for (r, n, s), d in sorted(self._dims.items(), key=key)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PageTable) and self.r_max == other.r_max
                and self._dims == other._dims)

    def __bool__(self) -> bool:
        return bool(self._dims)

    def diff(self, other: "PageTable") -> list[tuple[PageIndex, int, int, int, int]]:
        """Cells where the two tables disagree, as (r, n, s, self_dim, other_dim)."""
        keys = set(self._dims) | set(other._dims)
        out = []
        for key in keys:
            a = self._dims.get(key, 0)
            b = other._dims.get(key, 0)
            if a != b:
                out.append((*key, a, b))
        out.sort(key=lambda t: (t[0] == INF, t[0] if t[0] != INF else 0, t[1], t[2]))
        return out

    # -- serialization -------------------------------------------------------

    def to_lines(self, sep: str = " ") -> list[str]:
        lines = [f"# r_max {self.r_max}"]
        for r, n, s, d in self.cells():
            r_txt = "inf" if r == INF else str(r)
            lines.append(sep.join((r_txt, str(n), str(s), str(d))))
        return lines

    def to_json_obj(self) -> dict:
        return {
            "r_max": self.r_max,
            "dims": [
                {"r": "inf" if r == INF else r, "n": n, "s": s, "dim": d}
                for r, n, s, d in self.cells()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PageTable":
        """Inverse of :meth:`to_json_obj`; a malformed object is a ParseError."""
        try:
            dims = {}
            for cell in obj.get("dims", ()):
                r = INF if cell["r"] == "inf" else int(cell["r"])
                dims[(r, int(cell["n"]), int(cell["s"]))] = int(cell["dim"])
            return cls(int(obj["r_max"]), dims)
        except KeyError as exc:
            raise ParseError(f"page table JSON lacks key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"bad page table JSON: {exc}") from None


def parse_page_table(text: str) -> PageTable:
    """Parse the line format emitted by :meth:`PageTable.to_lines`.

    A ``# r_max N`` comment records the computed depth; without it the
    depth is inferred as the largest page index present, which is only
    sound when the table was serialized in full.
    """
    dims: dict[tuple[PageIndex, int, int], int] = {}
    r_max: Optional[int] = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "r_max":
                try:
                    r_max = int(parts[1])
                except ValueError:
                    raise ParseError(f"bad r_max {parts[1]!r}", line_no) from None
            continue
        if not line:
            continue
        parts = line.replace("\t", " ").split()
        if len(parts) != 4:
            raise ParseError(f"expected 'r n s dim', got {line!r}", line_no)
        try:
            r = INF if parts[0] == "inf" else int(parts[0])
            n, s, d = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:
            raise ParseError(f"bad page cell {line!r}", line_no) from None
        dims[(r, n, s)] = d
    if r_max is None:
        finite = [r for (r, _, _) in dims if r != INF]
        r_max = max(finite) if finite else 1
    try:
        return PageTable(r_max, dims)
    except UsageError as exc:
        raise ParseError(str(exc)) from None


# -- engine 1: pages from the barcode ---------------------------------------

def pages_from_barcode(b: Barcode, r_max: int) -> PageTable:
    if not isinstance(r_max, int) or r_max < 1:
        raise UsageError(f"r_max must be a positive integer, got {r_max!r}")
    dims: dict[tuple[PageIndex, int, int], int] = {}

    def bump(r, n, s, by):
        key = (r, n, s)
        dims[key] = dims.get(key, 0) + by

    for entry, mult in b.entries():
        n, s = entry.degree, entry.birth
        if entry.is_essential:
            for r in range(1, r_max + 1):
                bump(r, n, s, mult)
            bump(INF, n, s, mult)
        else:
            m = entry.lifetime
            for r in range(1, min(m, r_max) + 1):
                bump(r, n, s, mult)
                bump(r, n + 1, s + m, mult)
    return PageTable(r_max, dims)


# -- engine 2: pages straight from the complex -------------------------------

@dataclass
class _Degree:
    """One degree's boundary columns, ordered for the zeta sweeps."""
    col_levels: list  # filtration of each column, nondecreasing
    row_levels: list  # filtration of each row one degree below, nondecreasing
    cols: list        # boundary columns over row positions, in column order
    ranks: dict       # row cut K -> rank after each column prefix


class _KernelDims:
    """zeta(r, n, s) lookups backed by shared rank sweeps.

    Per degree, columns are ordered by (filtration, gid) and their rows are
    reindexed by the same order one degree below.  For a fixed row cut K
    (keep rows at position >= K) one reduction sweep records the rank after
    every column prefix, which answers zeta for every s at that cut.
    """

    def __init__(self, c: FilteredChainComplex):
        self.field = c.field
        orders = {}
        for n in c.degrees():
            gens = c.gens(n)
            orders[n] = sorted(range(len(gens)), key=lambda i: (gens[i].filtration, i))
        self.deg: dict[int, _Degree] = {}
        for n, order in orders.items():
            gens = c.gens(n)
            below = c.gens(n - 1)
            row_order = orders.get(n - 1, [])
            pos_of = {gid: k for k, gid in enumerate(row_order)}
            self.deg[n] = _Degree(
                col_levels=[gens[i].filtration for i in order],
                row_levels=[below[g].filtration for g in row_order],
                cols=[sorted((pos_of[r], v) for r, v in c.column(n, i)) for i in order],
                ranks={},
            )

    def _prefix_ranks(self, deg: _Degree, cut_pos: int) -> list[int]:
        cached = deg.ranks.get(cut_pos)
        if cached is not None:
            return cached
        reducer = ColumnReducer(self.field)
        ranks = [0]
        r = 0
        for col in deg.cols:
            reduced = reducer.reduce(col[bisect_left(col, cut_pos, key=itemgetter(0)):])
            if reduced:
                reducer.add_pivot(reduced)
                r += 1
            ranks.append(r)
        deg.ranks[cut_pos] = ranks
        return ranks

    def zeta(self, r: PageIndex, n: int, s: int) -> int:
        """dim { x in F^s C_n : d(x) in F^(s-r) C_(n-1) }; r = inf gives the cycles."""
        deg = self.deg.get(n)
        if deg is None:
            return 0
        ncols = bisect_right(deg.col_levels, s)
        if ncols == 0:
            return 0
        cut_pos = bisect_right(deg.row_levels, s - r)
        return ncols - self._prefix_ranks(deg, cut_pos)[ncols]

    def image_rank(self, n: int, i: int, j: int) -> int:
        """rank of H_n(F^i) -> H_n(F^j) for i <= j.

        Cycles in F^i modulo the boundaries from F^j that land in F^i; the
        latter form d({x in F^j C_(n+1) : d(x) in F^i}) whose dimension is
        zeta(j-i, n+1, j) - zeta(inf, n+1, j).
        """
        cycles = self.zeta(INF, n, i)
        hit = self.zeta(j - i, n + 1, j) - self.zeta(INF, n + 1, j)
        return cycles - hit


def pages_direct(c: FilteredChainComplex, r_max: int) -> PageTable:
    if not isinstance(r_max, int) or r_max < 1:
        raise UsageError(f"r_max must be a positive integer, got {r_max!r}")
    c.ensure_valid()
    if not c.degrees():
        return PageTable(r_max, {})
    table = _KernelDims(c)
    top = c.max_level
    dims: dict[tuple[PageIndex, int, int], int] = {}
    cells = sorted({(g.degree, g.filtration) for g in c.all_generators()})
    for n, s in cells:
        for r in range(1, r_max + 1):
            val = (table.zeta(r, n, s) - table.zeta(r - 1, n, s - 1)
                   - table.zeta(r - 1, n + 1, s + r - 1)
                   + table.zeta(r, n + 1, s + r - 1))
            if val:
                dims[(r, n, s)] = val
        stable = table.image_rank(n, s, top) - table.image_rank(n, s - 1, top)
        if stable:
            dims[(INF, n, s)] = stable
    return PageTable(r_max, dims)


# -- collapse, recovery, verification ----------------------------------------

def collapse_page(p: PageTable, n: int, s: int) -> Optional[int]:
    """Smallest page from which the cell (n, s) already equals its limit.

    Returns None when the cell still differs from the limit at r_max (not
    stabilized within the computed range).
    """
    target = p.dim(INF, n, s)
    if p.dim(p.r_max, n, s) != target:
        return None
    r = p.r_max
    while r > 1 and p.dim(r - 1, n, s) == target:
        r -= 1
    return r


def recover_barcode(p: PageTable, s_min: int) -> Barcode:
    """Reconstruct the barcode from page dimensions.

    Essential multiplicities are read off the infinity row.  Finite ones
    follow the recursion

        nu[n, s, m] = dim(m, n, s) - dim(m+1, n, s) - nu[n-1, s-m, m]

    walking the birth level upward from s_min (every level below it is
    empty).  A negative intermediate value means the table is not the page
    table of any complex; a cell whose r_max dimension has not yet reached
    the limit means r_max was too small to see every bar die.
    """
    support = p.support()
    if not support:
        return Barcode()
    births = [s for _, s in support]
    if min(births) < s_min:
        raise UsageError(
            f"table has support at level {min(births)} below s_min={s_min}"
        )
    for n, s in sorted(support):
        if p.dim(p.r_max, n, s) != p.dim(INF, n, s):
            raise InsufficientRMaxError(
                f"cell (n={n}, s={s}) still differs from its limit at r_max={p.r_max}"
            )
    counts: dict[BarEntry, int] = {}
    nu: dict[tuple[int, int, int], int] = {}
    degrees = sorted({n for n, _ in support})
    n_range = range(degrees[0], degrees[-1] + 2)
    for n, s in sorted(support):
        d = p.dim(INF, n, s)
        if d:
            counts[BarEntry(n, s, INF)] = d
    for s in range(s_min, max(births) + 1):
        for n in n_range:
            for m in range(1, p.r_max):
                val = (p.dim(m, n, s) - p.dim(m + 1, n, s)
                       - nu.get((n - 1, s - m, m), 0))
                if val < 0:
                    raise InconsistentTableError(
                        f"negative multiplicity {val} at (n={n}, s={s}, m={m})"
                    )
                if val:
                    nu[(n, s, m)] = val
                    counts[BarEntry(n, s, m)] = val
    return Barcode(counts)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerifyReport:
    checks: list  # list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            out.append(f"[{status}] {c.name}{suffix}")
        n_pass = sum(1 for c in self.checks if c.passed)
        out.append(f"{n_pass}/{len(self.checks)} checks passed")
        return out


def verify(c: FilteredChainComplex, r_max: int) -> VerifyReport:
    """Cross-check the two page engines and the identities tying them together."""
    c.ensure_valid()
    _, barcode = decompose(c)
    from_bars = pages_from_barcode(barcode, r_max)
    direct = pages_direct(c, r_max)
    checks: list[CheckResult] = []

    mismatches = from_bars.diff(direct)
    checks.append(CheckResult(
        "pages-equal", not mismatches,
        "" if not mismatches else f"{len(mismatches)} differing cells, "
                                  f"first {mismatches[0]}",
    ))

    graded = homology_dims_by_level(c.associated_graded())
    bad = []
    for key in set(graded) | direct.support():
        n, s = key
        if direct.dim(1, n, s) != graded.get(key, 0):
            bad.append((n, s, direct.dim(1, n, s), graded.get(key, 0)))
    checks.append(CheckResult(
        "page-one-is-graded-homology", not bad,
        "" if not bad else f"first mismatch (n,s,page,graded)={sorted(bad)[0]}",
    ))

    degrees = sorted(set(c.degrees()) | {n for n, _ in direct.support()})
    bad = []
    for n in degrees:
        total = direct.row_total(INF, n)
        if total != c.homology_dim(n):
            bad.append((n, total, c.homology_dim(n)))
    checks.append(CheckResult(
        "limit-row-is-total-homology", not bad,
        "" if not bad else f"first mismatch (n,limit,homology)={bad[0]}",
    ))

    bad = []
    if c.degrees():
        top = c.max_level
        finite = [(e, m) for e, m in barcode.entries() if not e.is_essential]
        for n in degrees:
            essentials = betti(barcode, n, top, top)
            for r in range(1, r_max + 1):
                lhs = direct.row_total(r, n)
                rhs = essentials
                for e, _ in finite:
                    if e.lifetime >= r and e.degree in (n, n - 1):
                        rhs += multiplicity(barcode, e.degree, e.birth,
                                            e.birth + e.lifetime)
                if lhs != rhs:
                    bad.append((r, n, lhs, rhs))
    checks.append(CheckResult(
        "totalized-dimension-identity", not bad,
        "" if not bad else f"first mismatch (r,n,pages,bars)={bad[0]}",
    ))

    try:
        start = c.min_level if c.degrees() else 0
        recovered = recover_barcode(direct, start)
        ok = recovered == barcode
        detail = "" if ok else "recovered barcode differs"
    except (InconsistentTableError, InsufficientRMaxError) as exc:
        ok, detail = False, str(exc)
    checks.append(CheckResult("barcode-round-trip", ok, detail))

    return VerifyReport(checks)
