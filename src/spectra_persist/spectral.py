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

Both engines hand their values to a ``PageTable``, which keeps each cell as
runs over r, so neither their work nor their memory grows with r_max.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import accumulate
from typing import Iterator, Mapping, Optional

from .complexes import FilteredChainComplex, homology_dims_by_level
from .errors import (InconsistentTableError, InsufficientRMaxError, ParseError,
                     UsageError)
from .fields import parse_int
from .linalg import ColumnReducer
from .persistence import INF, Barcode, BarEntry, betti, decompose, multiplicity

PageIndex = float  # int >= 1, or math.inf


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _at(runs: list, r: PageIndex) -> int:
    """Value at page r of runs [(first page, value), ...]; zero before the first."""
    i = bisect_right(runs, (r, INF))
    return runs[i - 1][1] if i else 0


class PageTable:
    """Dimensions of the pages E^(r) for r = 1..r_max and r = inf.

    Each cell (n, s) is a step function of r, kept as its runs: a list of
    (first page, dim), where the limit has a run of its own, at page inf,
    only when it differs from page r_max.  A run starts only where the
    dimension changes (it is zero before page 1) and an all-zero cell is
    absent, so equal tables have equal runs, and memory and work follow the
    runs, not r_max.  The row total of each degree is kept as runs too.
    """

    def __init__(self, r_max: int, dims: Mapping = ()):
        """A table from a dense mapping {(r, n, s): dim}; absent keys are zero."""
        if not _is_int(r_max) or r_max < 1:
            raise UsageError(f"r_max must be a positive integer, got {r_max!r}")
        self.r_max = r_max
        cells: dict = {}
        for (r, n, s), d in dict(dims).items():
            self._check_r(r)
            cells.setdefault((n, s), {INF: 0})[r] = d
        for pages in cells.values():
            for r in [r for r in pages if r < r_max]:
                pages.setdefault(r + 1, 0)
        self._store({key: sorted(pages.items()) for key, pages in cells.items()})

    def _store(self, steps: Mapping) -> "PageTable":
        """Keep {(n, s): [(page, dim), ...]}, pages rising over 1..r_max, inf."""
        self._runs: dict[tuple[int, int], list] = {}
        deltas: dict[int, dict] = {}  # degree -> page -> change of the row total
        for (n, s), points in steps.items():
            if not (_is_int(n) and _is_int(s)):
                raise UsageError(f"cell (n={n!r}, s={s!r}) is not indexed by integers")
            runs, delta = [], deltas.setdefault(n, {})
            for r, d in points:
                if not _is_int(d):
                    raise UsageError(f"dimension {d!r} at (r={r}, n={n}, s={s}) "
                                     "is not an integer")
                if d < 0:
                    raise UsageError(f"negative dimension at (r={r}, n={n}, s={s})")
                before = runs[-1][1] if runs else 0
                if d != before:
                    runs.append((r, d))
                    delta[r] = delta.get(r, 0) + d - before
            if runs:
                self._runs[(n, s)] = runs
        self._rows = {}
        for n, delta in deltas.items():
            pages = sorted(delta)
            self._rows[n] = list(zip(pages, accumulate(delta[r] for r in pages)))
        return self

    def _check_r(self, r: PageIndex) -> None:
        if r == INF:
            return
        if not _is_int(r) or not 1 <= r <= self.r_max:
            raise UsageError(f"page index {r!r} outside 1..{self.r_max} and inf")

    def dim(self, r: PageIndex, n: int, s: int) -> int:
        self._check_r(r)
        return _at(self._runs.get((n, s), []), r)

    def steps(self, n: int, s: int) -> list[tuple[PageIndex, int]]:
        """(first page, dim) of each run of the cell (n, s), the limit's as page inf."""
        return list(self._runs.get((n, s), []))

    def support(self) -> set:
        return set(self._runs)

    def row_total(self, r: PageIndex, n: int) -> int:
        """Sum of the page-r dimensions over all levels at degree n."""
        self._check_r(r)
        return _at(self._rows.get(n, []), r)

    def _cells(self) -> Iterator[tuple[PageIndex, int, int, int]]:
        """Nonzero cells (r, n, s, dim), finite pages first, inf row last.

        The run starts cut the pages into stretches on which no cell changes;
        each is written out page by page, and an empty one is skipped whole.
        """
        events = sorted((r, n, s, d) for (n, s), runs in self._runs.items()
                        for r, d in runs if r != INF)
        live: dict[tuple[int, int], int] = {}
        for i, (r, n, s, d) in enumerate(events):
            live[(n, s)] = d
            end = events[i + 1][0] if i + 1 < len(events) else self.r_max + 1
            if end == r:
                continue
            row = sorted((*key, d) for key, d in live.items() if d)
            for page in range(r, end) if row else ():
                yield from ((page, *cell) for cell in row)
        for (n, s), runs in sorted(self._runs.items()):
            if runs[-1][1]:
                yield INF, n, s, runs[-1][1]

    def cells(self) -> list[tuple[PageIndex, int, int, int]]:
        """Nonzero cells as (r, n, s, dim), finite pages first, inf row last."""
        return list(self._cells())

    def __eq__(self, other) -> bool:
        return (isinstance(other, PageTable) and self.r_max == other.r_max
                and self._runs == other._runs)

    def __bool__(self) -> bool:
        return bool(self._runs)

    def diff(self, other: "PageTable") -> list[tuple[PageIndex, int, int, int, int]]:
        """Cells where the two tables disagree, as (r, n, s, self_dim, other_dim)."""
        def value(table, runs, r):
            return 0 if r != INF and r > table.r_max else _at(runs, r)

        out = []
        for n, s in self._runs.keys() | other._runs.keys():
            mine, theirs = self._runs.get((n, s), []), other._runs.get((n, s), [])
            pages = sorted({1, self.r_max + 1, other.r_max + 1, INF,
                            *(r for r, _ in mine + theirs)})
            for r, end in zip(pages, [*pages[1:], INF]):
                a, b = value(self, mine, r), value(other, theirs, r)
                if a != b:  # both are zero past the larger r_max, so end is finite
                    out.extend((q, n, s, a, b) for q in ([r] if r == INF else range(r, end)))
        out.sort(key=lambda t: (t[0] == INF, t[0] if t[0] != INF else 0, t[1], t[2]))
        return out

    # -- serialization -------------------------------------------------------

    def to_lines(self, sep: str = " ") -> Iterator[str]:
        """The line format, one line per nonzero cell per page, made as it is read."""
        yield f"# r_max {self.r_max}"
        for r, n, s, d in self._cells():
            yield sep.join(("inf" if r == INF else str(r), str(n), str(s), str(d)))

    def json_dims(self) -> Iterator[dict]:
        """The ``dims`` entries of :meth:`to_json_obj`, made as they are read."""
        for r, n, s, d in self._cells():
            yield {"r": "inf" if r == INF else r, "n": n, "s": s, "dim": d}

    def to_json_obj(self) -> dict:
        return {"r_max": self.r_max, "dims": list(self.json_dims())}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PageTable":
        """Inverse of :meth:`to_json_obj`; a malformed object is a ParseError.

        Numbers must be JSON integers (not booleans, floats or strings),
        except that ``r`` may be ``"inf"``.
        """
        try:  # the constructor checks the rest; _check_int keeps out JSON's Infinity
            dims = {(INF if c["r"] == "inf" else _check_int(c["r"]), c["n"], c["s"]): c["dim"]
                    for c in obj.get("dims", ())}
            return cls(obj["r_max"], dims)
        except KeyError as exc:
            raise ParseError(f"page table JSON lacks key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"bad page table JSON: {exc}") from None


def _check_int(value) -> int:
    if not _is_int(value):
        raise ValueError(f"{value!r} is not an integer")
    return value


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
            r = INF if parts[0] == "inf" else parse_int(parts[0])
            n, s, d = map(parse_int, parts[1:])
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
    """Runs of the closed form: a bar adds its multiplicity to its birth cell
    from page 1 on and, when finite with lifetime m, to its death cell too,
    taking both away again after page m (at the limit, when m >= r_max)."""
    table = PageTable(r_max)
    delta: Counter = Counter()
    for entry, mult in b.entries():
        n, s, m = entry.degree, entry.birth, entry.lifetime
        delta[(n, s, 1)] += mult
        if not entry.is_essential:
            end = m + 1 if m < r_max else INF
            delta[(n, s, end)] -= mult
            delta[(n + 1, s + m, 1)] += mult
            delta[(n + 1, s + m, end)] -= mult
    steps: dict[tuple[int, int], list] = {}
    for (n, s, r), d in sorted(delta.items()):
        runs = steps.setdefault((n, s), [])
        runs.append((r, (runs[-1][1] if runs else 0) + d))
    return table._store(steps)


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
    constant, so each value is a run of the table.
    """
    table = PageTable(r_max)
    c.ensure_valid()
    if not c.degrees():
        return table
    kd = _KernelDims(c)
    limit = c.filtration_span + 1  # d_r leaves the filtration once r > span
    starts = {(g.degree, g.filtration): {1} for g in c.all_generators()}
    for n, s, k in kd.breakpoints():
        if k <= r_max:
            starts[(n, s)].add(k)

    def value(k, n, s):
        return (kd.zeta(k, n, s) - kd.zeta(k - 1, n, s - 1)
                - kd.zeta(k - 1, n + 1, s + k - 1)
                + kd.zeta(k, n + 1, s + k - 1))

    return table._store({
        (n, s): [*((k, value(k, n, s)) for k in sorted(ks)), (INF, value(limit, n, s))]
        for (n, s), ks in starts.items()})


# -- collapse, recovery, verification ----------------------------------------

def collapse_page(p: PageTable, n: int, s: int) -> Optional[int]:
    """Smallest page from which the cell (n, s) already equals its limit.

    Returns None when the cell still differs from the limit at r_max (not
    stabilized within the computed range).
    """
    last = (p.steps(n, s) or [(1, 0)])[-1][0]
    return None if last == INF else last


def recover_barcode(p: PageTable, s_min: int) -> Barcode:
    """Reconstruct the barcode from page dimensions.

    Essential multiplicities are read off the infinity row.  Finite ones
    follow the recursion

        nu[n, s, m] = dim(m, n, s) - dim(m+1, n, s) - nu[n-1, s-m, m]

    for birth levels s_min..(top level of the support), degrees from the
    lowest in the support to one above the highest, and 1 <= m < r_max.
    A term is zero unless the cell drops between pages m and m+1 or
    nu[n-1, s-m, m] is nonzero, so only those triples are visited: the
    drops read off the runs (a run starting at page m+1 <= r_max), and each
    nonzero nu schedules the triple (n+1, s+m, m) it feeds (left unvisited
    when s+m is above the top level, as the full walk leaves it).  They are
    visited in (s, n, m) order, the order of the recursion, taking the
    levels off a heap, so the first negative value is the same one the full
    walk meets.  A negative value means the table is not the page table of
    any complex; a cell whose r_max dimension has not yet reached the limit
    means r_max was too small to see every bar die.
    """
    support = p.support()
    if not support:
        return Barcode()
    births = [s for _, s in support]
    if min(births) < s_min:
        raise UsageError(
            f"table has support at level {min(births)} below s_min={s_min}"
        )
    counts: dict[BarEntry, int] = {}
    todo: dict[int, list] = {}  # level s -> [(n, m)] to visit there
    for n, s in sorted(support):
        runs = p.steps(n, s)
        if runs[-1][0] == INF:
            raise InsufficientRMaxError(
                f"cell (n={n}, s={s}) still differs from its limit at r_max={p.r_max}"
            )
        if runs[-1][1]:
            counts[BarEntry(n, s, INF)] = runs[-1][1]
        todo.setdefault(s, []).extend((n, r - 1) for r, _ in runs if r > 1)
    top = max(births)
    levels = list(todo)
    heapify(levels)
    nu: dict[tuple[int, int, int], int] = {}
    while levels:
        s = heappop(levels)
        for n, m in sorted(set(todo.pop(s))):
            val = p.dim(m, n, s) - p.dim(m + 1, n, s) - nu.get((n - 1, s - m, m), 0)
            if val < 0:
                raise InconsistentTableError(
                    f"negative multiplicity {val} at (n={n}, s={s}, m={m})"
                )
            if val:
                nu[(n, s, m)] = val
                counts[BarEntry(n, s, m)] = val
                if s + m <= top:
                    if s + m not in todo:
                        heappush(levels, s + m)
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

    def check(name, bad, detail):
        checks.append(CheckResult(name, not bad, detail if bad else ""))

    mismatches = from_bars.diff(direct)
    check("pages-equal", mismatches,
          mismatches and f"{len(mismatches)} differing cells, first {mismatches[0]}")

    graded = homology_dims_by_level(c.associated_graded())
    bad = []
    for key in set(graded) | direct.support():
        n, s = key
        if direct.dim(1, n, s) != graded.get(key, 0):
            bad.append((n, s, direct.dim(1, n, s), graded.get(key, 0)))
    check("page-one-is-graded-homology", bad,
          bad and f"first mismatch (n,s,page,graded)={min(bad)}")

    degrees = sorted(set(c.degrees()) | {n for n, _ in direct.support()})
    bad = []
    for n in degrees:
        total, homology = direct.row_total(INF, n), c.homology_dim(n)
        if total != homology:
            bad.append((n, total, homology))
    check("limit-row-is-total-homology", bad,
          bad and f"first mismatch (n,limit,homology)={bad[0]}")

    # pages: the row totals; bars: the essential bars of degree n and the
    # finite bars of degrees n and n-1 that last r levels or more.  Both are
    # step functions of r, so they are compared where either one steps.
    bad = []
    top = c.max_level
    finite = [(e, multiplicity(barcode, e.degree, e.birth, e.birth + e.lifetime))
              for e, _ in barcode.entries() if not e.is_essential]
    for n in degrees:
        essentials = betti(barcode, n, top, top)
        bars = [(e.lifetime, k) for e, k in finite if e.degree in (n, n - 1)]
        steps = {1, *(m + 1 for m, _ in bars), *(r for r, _ in direct._rows.get(n, []))}
        for r in sorted(r for r in steps if r <= r_max):
            lhs, rhs = direct.row_total(r, n), essentials + sum(k for m, k in bars if m >= r)
            if lhs != rhs:
                bad.append((r, n, lhs, rhs))
                break
        if bad:
            break
    check("totalized-dimension-identity", bad,
          bad and f"first mismatch (r,n,pages,bars)={bad[0]}")

    try:
        start = c.min_level if c.degrees() else 0
        recovered = recover_barcode(direct, start)
        ok = recovered == barcode
        detail = "" if ok else "recovered barcode differs"
    except (InconsistentTableError, InsufficientRMaxError) as exc:
        ok, detail = False, str(exc)
    checks.append(CheckResult("barcode-round-trip", ok, detail))

    return VerifyReport(checks)
