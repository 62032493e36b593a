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
submatrix with those columns and the rows above level s-r.  With columns and
rows ordered by level that submatrix is a lower-left block, and by the
pairing lemma its rank is the number of pivot pairs inside it.  One
reduction per degree, of the anti-transposed (coboundary) matrix, gives the
pairs, so every zeta is a count.  Since d_r leaves the filtration once
r > filtration span, the infinity row is the same expression at
r = span + 1.

Counting pairs also says where a cell can change with r.  Write a pair as
(b, t): its row sits at level b, its column at level t, and b <= t.  The
first two terms differ by the columns at level s minus the pairs of d_n with
t = s and b > s - r; the last two differ by minus the pairs of d_(n+1) with
b = s and t <= s + r - 1.  Both counts move only at r = t - b + 1 of such a
pair, so the cell is constant between those breakpoints, and the engine
evaluates it at r = 1, at each breakpoint up to r_max, and at the limit.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Optional

from .complexes import FilteredChainComplex, homology_dims_by_level
from .errors import (InconsistentTableError, InsufficientRMaxError, ParseError,
                     UsageError)
from .fields import parse_int
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
        """Inverse of :meth:`to_json_obj`; a malformed object is a ParseError.

        Numbers must be JSON integers (not booleans, floats or strings),
        except that ``r`` may be ``"inf"``.
        """
        try:
            dims = dict(_page_cell(c["r"], c["n"], c["s"], c["dim"])
                        for c in obj.get("dims", ()))
            return cls(_check_int(obj["r_max"]), dims)
        except KeyError as exc:
            raise ParseError(f"page table JSON lacks key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"bad page table JSON: {exc}") from None


def _check_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    return value


def _page_cell(r, n, s, d) -> tuple[tuple[PageIndex, int, int], int]:
    """Key and dimension of one table cell; r is ``"inf"`` or an integer."""
    key = (INF if r == "inf" else _check_int(r), _check_int(n), _check_int(s))
    return key, _check_int(d)


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
                    r_max = parse_int(parts[1])
                except ValueError:
                    raise ParseError(f"bad r_max {parts[1]!r}", line_no) from None
            continue
        if not line:
            continue
        parts = line.replace("\t", " ").split()
        if len(parts) != 4:
            raise ParseError(f"expected 'r n s dim', got {line!r}", line_no)
        try:
            key, d = _page_cell(*(t if t == "inf" else parse_int(t) for t in parts))
        except ValueError:
            raise ParseError(f"bad page cell {line!r}", line_no) from None
        dims[key] = d
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
    """One degree's boundary matrix, reduced once for the zeta counts."""
    col_levels: list  # filtration of each column, nondecreasing
    row_levels: list  # filtration of each row one degree below, nondecreasing
    low: list         # row position paired with each column, -1 if none
    ranks: dict       # row cut K -> rank after each column prefix


class _KernelDims:
    """zeta(r, n, s) lookups counted off one pairing per degree.

    Per degree, columns are ordered by (filtration, gid) and their rows are
    reindexed by the same order one degree below.  By the pairing lemma the
    rank of the block with rows at position >= K and the first k columns is
    the number of pairs (low[j], j) inside it.  The pairs come from a
    reduction of the anti-transposed (coboundary) matrix, bottom row first:
    row p becomes column n_rows-1-p and column j becomes row n_cols-1-j,
    which maps lower-left blocks to lower-left blocks and so pairs to pairs.
    It is not the reduction ``decompose`` runs, so the engines stay
    independent.

    As a count, zeta(r, n, s) is the columns at level <= s minus the pairs
    with column level t <= s and row level b > s - r.  So a pair of d_n
    changes the cells (n, t) and (n-1, b) at r = t - b + 1 and no other
    cell at any other r: ``breakpoints`` lists them.
    """

    def __init__(self, c: FilteredChainComplex):
        orders = {}
        for n in c.degrees():
            gens = c.gens(n)
            orders[n] = sorted(range(len(gens)), key=lambda i: (gens[i].filtration, i))
        self.deg: dict[int, _Degree] = {}
        for n, order in orders.items():
            gens = c.gens(n)
            below = c.gens(n - 1)
            row_order = orders.get(n - 1, [])
            n_rows, n_cols = len(row_order), len(order)
            flip = {gid: n_rows - 1 - k for k, gid in enumerate(row_order)}
            cocols: list = [[] for _ in row_order]
            for i, gid in enumerate(reversed(order)):
                for r, v in c.column(n, gid):
                    cocols[flip[r]].append((i, v))
            low = [-1] * n_cols
            reducer = ColumnReducer(c.field)
            for q, col in enumerate(cocols):
                col = reducer.reduce(col)
                if col:
                    low[n_cols - 1 - reducer.add_pivot(col)] = n_rows - 1 - q
            self.deg[n] = _Degree(
                col_levels=[gens[i].filtration for i in order],
                row_levels=[below[g].filtration for g in row_order],
                low=low,
                ranks={},
            )

    def _prefix_ranks(self, deg: _Degree, cut_pos: int) -> list[int]:
        ranks = deg.ranks.get(cut_pos)
        if ranks is None:
            ranks = deg.ranks[cut_pos] = [0, *accumulate(p >= cut_pos for p in deg.low)]
        return ranks

    def zeta(self, r: int, n: int, s: int) -> int:
        """dim { x in F^s C_n : d(x) in F^(s-r) C_(n-1) }."""
        deg = self.deg.get(n)
        if deg is None:
            return 0
        ncols = bisect_right(deg.col_levels, s)
        if ncols == 0:
            return 0
        cut_pos = bisect_right(deg.row_levels, s - r)
        return ncols - self._prefix_ranks(deg, cut_pos)[ncols]

    def breakpoints(self):
        """(n, s, r) for every pair: the cells it changes and from which page."""
        for n, deg in self.deg.items():
            for t, p in zip(deg.col_levels, deg.low):
                if p >= 0:
                    b = deg.row_levels[p]
                    yield n, t, t - b + 1
                    yield n - 1, b, t - b + 1


def pages_direct(c: FilteredChainComplex, r_max: int) -> PageTable:
    """Page dimensions from kernel counts, never from a barcode.

    Each cell is evaluated with the four-term formula only at r = 1, at the
    breakpoints r = t - b + 1 <= r_max of the pairs that touch it (see the
    module docstring), and at the limit; between breakpoints the value is
    constant, so it fills the run up to the next one.
    """
    if not isinstance(r_max, int) or r_max < 1:
        raise UsageError(f"r_max must be a positive integer, got {r_max!r}")
    c.ensure_valid()
    if not c.degrees():
        return PageTable(r_max, {})
    table = _KernelDims(c)
    limit = c.filtration_span + 1  # d_r leaves the filtration once r > span
    starts = {(g.degree, g.filtration): [1] for g in c.all_generators()}
    for n, s, k in table.breakpoints():
        if k <= r_max:
            starts[(n, s)].append(k)

    def value(k, n, s):
        return (table.zeta(k, n, s) - table.zeta(k - 1, n, s - 1)
                - table.zeta(k - 1, n + 1, s + k - 1)
                + table.zeta(k, n + 1, s + k - 1))

    dims: dict[tuple[PageIndex, int, int], int] = {}
    for (n, s), ks in starts.items():
        ks = sorted(set(ks))
        for k, end in zip(ks, [*ks[1:], r_max + 1]):
            val = value(k, n, s)
            if val:
                for r in range(k, end):
                    dims[(r, n, s)] = val
        val = value(limit, n, s)
        if val:
            dims[(INF, n, s)] = val
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

    for birth levels s_min..(top level of the support), degrees from the
    lowest in the support to one above the highest, and 1 <= m < r_max.
    A term is zero unless the cell drops between pages m and m+1 or
    nu[n-1, s-m, m] is nonzero, so only those triples are visited: the
    drops read off the stored (nonzero) cells, and each nonzero nu
    schedules the triple (n+1, s+m, m) it feeds (left unvisited when s+m
    is above the top level, as the full walk leaves it).  They are visited in
    (s, n, m) order, the order of the recursion, so the first negative
    value is the same one the full walk meets.  A negative value means the
    table is not the page table of any complex; a cell whose r_max
    dimension has not yet reached the limit means r_max was too small to
    see every bar die.
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
    for n, s in sorted(support):
        d = p.dim(INF, n, s)
        if d:
            counts[BarEntry(n, s, INF)] = d
    dims = p._dims
    todo: dict[int, list] = {}  # level s -> [(n, m)] to visit there
    for (r, n, s), d in dims.items():
        if r == INF:
            continue
        if r < p.r_max and dims.get((r + 1, n, s), 0) != d:
            todo.setdefault(s, []).append((n, r))
        if r > 1 and (r - 1, n, s) not in dims:
            todo.setdefault(s, []).append((n, r - 1))
    top = max(births)
    nu: dict[tuple[int, int, int], int] = {}
    for s in range(min(todo, default=top + 1), top + 1):
        for n, m in sorted(set(todo.pop(s, ()))):
            val = (dims.get((m, n, s), 0) - dims.get((m + 1, n, s), 0)
                   - nu.get((n - 1, s - m, m), 0))
            if val < 0:
                raise InconsistentTableError(
                    f"negative multiplicity {val} at (n={n}, s={s}, m={m})"
                )
            if val:
                nu[(n, s, m)] = val
                counts[BarEntry(n, s, m)] = val
                todo.setdefault(s + m, []).append((n + 1, m))
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
        total, homology = direct.row_total(INF, n), c.homology_dim(n)
        if total != homology:
            bad.append((n, total, homology))
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
