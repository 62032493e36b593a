"""Spectral-sequence page dimensions by two independent routes.

``pages_from_barcode`` expands each bar into its closed-form page
contributions: an essential bar (n, s, inf) puts one dimension at (n, s)
on every page; a finite bar (n, s, m) puts one dimension at (n, s) and one
at (n+1, s+m) on pages 1..m and nothing afterwards.

``pages_direct`` never looks at a barcode.  It counts the classical
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
pairing lemma its rank is the number of pivot pairs inside it.  Write a pair
as (b, t): its row sits at level b, its column at level t, and b <= t.  The
first two terms differ by the columns at level s minus the pairs of d_n with
t = s and b > s - r; the last two differ by minus the pairs of d_(n+1) with
b = s and t <= s + r - 1.  So

    dim E[r,n,s] = #gens(n,s) - #{pairs of d_n with t = s, t - b + 1 <= r}
                              - #{pairs of d_(n+1) with b = s, t - b + 1 <= r}

that is, a pair of d_n leaves the cells (n, t) and (n-1, b) from page
t - b + 1 on (a zero-length pair from page 1).  Since d_r leaves the
filtration once r > filtration span, the infinity row subtracts every pair.
One reduction per degree, of the anti-transposed (coboundary) matrix, gives
the pairs.

Each engine builds one ``PageTable``, which keeps each cell as runs over r,
so neither the work nor the memory of building or checking one grows with
r_max.  ``verify`` builds two tables, one per engine, and runs every check on
those two, comparing them run by run.  Its barcode round trip needs the pages
of the barcode recovered from the direct table: when that barcode is
``decompose``'s, they are the barcode engine's table, and only a barcode that
differs gets a table of its own.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import accumulate
from typing import Iterator, Mapping, NamedTuple, Optional

from .complexes import FilteredChainComplex, homology_dims_by_level
from .errors import (InconsistentTableError, InsufficientRMaxError, ParseError,
                     UsageError, shorten)
from .fields import is_int, numbered_lines, parse_int
from .linalg import ColumnReducer
# betti and multiplicity are not called here; they stay bound because perfbench's
# tracer wraps them by name
from .persistence import INF, Barcode, BarEntry, betti, decompose, multiplicity

PageIndex = float  # int >= 1, or math.inf


def _cell(r, n, s) -> str:
    """``(r=.., n=.., s=..)`` for an error message, each index shortened."""
    return f"(r={shorten(str(r))}, n={shorten(str(n))}, s={shorten(str(s))})"


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
        self.r_max = _check_depth(r_max)
        cells: dict = {}
        for (r, n, s), d in dict(dims).items():
            self._check_r(r)
            cells.setdefault((n, s), {INF: 0})[r] = d
        for pages in cells.values():
            for r in [r for r in pages if r < r_max]:
                pages.setdefault(r + 1, 0)
        self._store({key: sorted(pages.items()) for key, pages in cells.items()})

    @classmethod
    def _of_depth(cls, r_max: int) -> "PageTable":
        """An empty table, r_max checked as by the constructor, for an engine to ``_store``."""
        table = cls.__new__(cls)
        table.r_max = _check_depth(r_max)
        return table

    def _store(self, steps: Mapping) -> "PageTable":
        """Keep {(n, s): [(page, dim), ...]}, pages rising over 1..r_max, inf."""
        self._runs: dict[tuple[int, int], list] = {}
        deltas: dict[int, dict] = {}  # degree -> page -> change of the row total
        # ``type(x) is int`` spares the is_int call on plain ints; the rest go through it
        for (n, s), points in steps.items():
            if type(n) is not int and not is_int(n) or type(s) is not int and not is_int(s):
                raise UsageError(f"cell (n={shorten(repr(n))}, s={shorten(repr(s))}) "
                                 "is not indexed by integers")
            runs, delta = [], deltas.setdefault(n, {})
            for r, d in points:
                if type(d) is not int and not is_int(d):
                    raise UsageError(f"dimension {shorten(repr(d))} at {_cell(r, n, s)} "
                                     "is not an integer")
                if d < 0:
                    raise UsageError(f"negative dimension at {_cell(r, n, s)}")
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
        # as in ``_store``, a plain int in range is spared the is_int call
        if type(r) is int and 1 <= r <= self.r_max or r == INF:
            return
        if not is_int(r) or not 1 <= r <= self.r_max:
            raise UsageError(f"page index {shorten(repr(r))} outside "
                             f"1..{shorten(str(self.r_max))} and inf")

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
        """Cells where the tables disagree, one per page, as (r, n, s, self_dim, other_dim)."""
        return sorted((q, n, s, a, b) for r, end, n, s, a, b in self._stretches(other)
                      for q in ([r] if r == INF else range(r, end)))

    def _stretches(self, other: "PageTable") -> Iterator[tuple]:
        """Where the tables disagree, as (r, end, n, s, self_dim, other_dim): the
        pages r..end-1 of the cell (n, s), or its limit when r (so end) is inf."""
        def value(table, runs, r):
            return 0 if r != INF and r > table.r_max else _at(runs, r)

        for n, s in self._runs.keys() | other._runs.keys():
            mine, theirs = self._runs.get((n, s), []), other._runs.get((n, s), [])
            pages = sorted({1, self.r_max + 1, other.r_max + 1, INF,
                            *(r for r, _ in mine + theirs)})
            for r, end in zip(pages, [*pages[1:], INF]):
                a, b = value(self, mine, r), value(other, theirs, r)
                if a != b:  # both are zero past the larger r_max, so end is finite
                    yield r, end, n, s, a, b

    # -- serialization -------------------------------------------------------

    def to_lines(self, sep: str = " ") -> Iterator[str]:
        """The line format, one line per nonzero cell per page, made as it is read."""
        yield f"# r_max {self.r_max}"
        for r, n, s, d in self._cells():
            yield sep.join(("inf" if r == INF else str(r), str(n), str(s), str(d)))

    def json_dims(self) -> Iterator[dict]:
        """The ``dims`` entries of the JSON object ``{"r_max": ..., "dims": [...]}``
        that ``pages --format json`` writes, made as they are read."""
        for r, n, s, d in self._cells():
            yield {"r": "inf" if r == INF else r, "n": n, "s": s, "dim": d}

    @classmethod
    def from_json_obj(cls, obj) -> "PageTable":
        """The table of a decoded JSON object ``{"r_max": ..., "dims": [...]}``
        with :meth:`json_dims` entries; a malformed object is a ParseError.

        Numbers must be JSON integers (not booleans, floats or strings),
        except that ``r`` may be ``"inf"``.
        """
        if not isinstance(obj, dict):
            raise ParseError("bad page table JSON: the top level is not an object")
        if "dims" not in obj:
            raise ParseError("bad page table JSON: lacks key 'dims'")
        cells = obj["dims"]
        if not isinstance(cells, list):
            raise ParseError("bad page table JSON: dims is not a list")
        for k, c in enumerate(cells):
            if not isinstance(c, dict):
                raise ParseError(f"bad page table JSON: dims[{k}] is not an object")
        try:  # the constructor checks the rest; _check_int keeps out JSON's Infinity
            dims: dict = {}
            for c in cells:
                r = INF if c["r"] == "inf" else _check_int(c["r"])
                _put_cell(dims, (r, c["n"], c["s"]), c["dim"])
            return cls(obj["r_max"], dims)
        except KeyError as exc:
            raise ParseError(f"page table JSON lacks key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad page table JSON: {exc}") from None


def _put_cell(dims: dict, key: tuple, dim, line_no: Optional[int] = None) -> None:
    """Add a parsed cell (r, n, s) to ``dims``; a second one is a ParseError."""
    if key in dims:
        raise ParseError(f"repeated page cell {_cell(*key)}", line_no)
    dims[key] = dim


def _check_depth(r_max) -> int:
    if not is_int(r_max) or r_max < 1:
        raise UsageError(f"r_max must be a positive integer, got {shorten(repr(r_max))}")
    return r_max


def _check_int(value) -> int:
    if not is_int(value):
        raise ValueError(f"{shorten(repr(value))} is not an integer")
    return value


def parse_page_table(text: str) -> PageTable:
    """Parse the line format emitted by :meth:`PageTable.to_lines`.

    A ``# r_max N`` comment records the computed depth; without it the
    depth is inferred as the largest page index present, which is only
    sound when the table was serialized in full.
    """
    dims: dict[tuple[PageIndex, int, int], int] = {}
    r_max: Optional[int] = None
    for line_no, raw in numbered_lines(text):
        line = raw.strip()
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "r_max":
                if r_max is not None:
                    raise ParseError("second r_max comment", line_no)
                try:
                    r_max = parse_int(parts[1])
                except ValueError:
                    raise ParseError(f"bad r_max {shorten(parts[1])!r}", line_no) from None
            continue
        if not line:
            continue
        parts = line.replace("\t", " ").split()
        if len(parts) != 4:
            raise ParseError(f"expected 'r n s dim', got {shorten(line)!r}", line_no)
        try:
            r = INF if parts[0] == "inf" else parse_int(parts[0])
            n, s, d = map(parse_int, parts[1:])
        except ValueError:
            raise ParseError(f"bad page cell {shorten(line)!r}", line_no) from None
        _put_cell(dims, (r, n, s), d, line_no)
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
    table = PageTable._of_depth(r_max)
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

def _coboundary_pairs(c: FilteredChainComplex) -> Iterator[tuple[int, int, int]]:
    """(n, row gid, column gid) for every pair of every d_n.

    Per degree, columns are ordered by (filtration, gid) and rows by the same
    order one degree below.  The pairs come from one reduction of the
    anti-transposed (coboundary) matrix, bottom row first: row p becomes
    column n_rows-1-p and column j becomes row n_cols-1-j, which maps
    lower-left blocks to lower-left blocks and so pairs to pairs.  It is not
    the reduction ``decompose`` runs, so the engines stay independent.
    """
    orders = {n: sorted(range(len(gens)), key=lambda i: (gens[i].filtration, i))
              for n, gens in c.generators.items()}
    for n, order in orders.items():
        row_order = orders.get(n - 1, [])
        flip = {gid: len(row_order) - 1 - k for k, gid in enumerate(row_order)}
        cocols: list = [[] for _ in row_order]
        for i, gid in enumerate(reversed(order)):
            for r, v in c.column(n, gid):
                cocols[flip[r]].append((i, v))
        reducer = ColumnReducer(c.field)
        for q, col in enumerate(cocols):
            col = reducer.reduce(col)
            if col:
                yield n, row_order[-1 - q], order[-1 - reducer.add_pivot(col)]


def pages_direct(c: FilteredChainComplex, r_max: int) -> PageTable:
    """Page dimensions counted off the engine's own pairing, never a barcode.

    A pair (b, t) of d_n leaves its cells (n, t) and (n-1, b) from page
    t - b + 1 on (see the module docstring), so each cell is its generators
    minus the pairs that have left it: a run at page 1, one at each leave
    page up to r_max, and the limit, which every pair has left.
    """
    table = PageTable._of_depth(r_max)
    c.ensure_valid()
    gens = Counter((g.degree, g.filtration) for g in c.all_generators())
    leaves: dict = {key: [] for key in gens}
    for n, row, col in _coboundary_pairs(c):
        b, t = c.gens(n - 1)[row].filtration, c.gens(n)[col].filtration
        leaves[(n, t)].append(t - b + 1)
        leaves[(n - 1, b)].append(t - b + 1)
    steps = {}
    for key, count in gens.items():
        pages = sorted(leaves[key])
        steps[key] = [*((k, count - bisect_right(pages, k))
                        for k in sorted({1, *pages}) if k <= r_max),
                      (INF, count - len(pages))]
    return table._store(steps)


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
    A negative value means the table is not the page table of any complex;
    a cell whose r_max dimension has not yet reached the limit means r_max
    was too small to see every bar die.  The recursion reads the birth
    cells only, so the result must also give back the whole table: the
    pages of a barcode are the pages of a complex (a sum of interval
    complexes), so a table passes iff some complex has it.  That round
    trip builds the result's own table with :func:`pages_from_barcode`
    and compares it run by run, so it does not grow with the span.
    """
    result = _recursion(p, s_min)
    _round_trip(p, pages_from_barcode(result, p.r_max))
    return result


def _recursion(p: PageTable, s_min: int) -> Barcode:
    """The barcode :func:`recover_barcode`'s recursion reads off ``p``'s
    birth cells, before the round trip.

    A term is zero unless the cell drops between pages m and m+1 or
    nu[n-1, s-m, m] is nonzero, so only those triples are visited: the
    drops read off the runs (a run starting at page m+1 <= r_max), and each
    nonzero nu schedules the triple (n+1, s+m, m) it feeds (left unvisited
    when s+m is above the top level, as the full walk leaves it).  They are
    visited in (s, n, m) order, the order of the recursion, taking the
    levels off a heap, so the first negative value is the same one the full
    walk meets.
    """
    support = p.support()
    if not support:
        return Barcode()
    births = [s for _, s in support]
    if min(births) < s_min:
        raise UsageError(f"table has support at level {shorten(str(min(births)))} "
                         f"below s_min={shorten(str(s_min))}")
    counts: dict[BarEntry, int] = {}
    todo: dict[int, list] = {}  # level s -> [(n, m)] to visit there
    for (n, s), runs in sorted(p._runs.items()):
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
            runs = p._runs.get((n, s), [])  # pages m and m + 1 lie in 1..r_max
            val = _at(runs, m) - _at(runs, m + 1) - nu.get((n - 1, s - m, m), 0)
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


def _round_trip(p: PageTable, back: PageTable) -> None:
    """Refuse ``p`` unless ``back``, the pages of the barcode recovered from
    it, gives back every cell of it."""
    if back != p:
        n, s = min(key for key in p.support() | back.support()
                   if p.steps(*key) != back.steps(*key))
        raise InconsistentTableError(
            f"no complex has this table: its bars give other pages at (n={n}, s={s})")


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class VerifyReport(NamedTuple):
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
    """Cross-check the two page engines and the identities tying them together.

    Each engine's table is built once, at r_max or at span + 1 if deeper, so
    that every bar dies within it and the barcode is recovered from the
    direct one; page one is checked against Gr C read off ``c`` itself.

    So one call builds two tables.  The round trip compares the direct table
    with the pages of the barcode recovered from it; when that barcode is
    ``decompose``'s, those pages are the barcode engine's table, already
    built at the same depth, and only a barcode that differs gets a table of
    its own."""
    _check_depth(r_max)
    c.ensure_valid()
    _, barcode = decompose(c)
    levels = [g.filtration for gens in c.generators.values() for g in gens]
    start, top = (min(levels), max(levels)) if levels else (0, 0)
    depth = max(r_max, top - start + 1)
    from_bars = pages_from_barcode(barcode, depth)
    direct = pages_direct(c, depth)
    checks: list[CheckResult] = []

    def check(name, bad, detail):
        checks.append(CheckResult(name, not bad, detail if bad else ""))

    # counted and located as diff() would list them, one cell per page
    stretches = [] if from_bars == direct else list(from_bars._stretches(direct))
    cells = sum(1 if r == INF else end - r for r, end, *_ in stretches)
    first = min(stretches, key=lambda t: (t[0], t[2], t[3]), default=None)
    check("pages-equal", stretches,
          stretches and f"{cells} differing cells, first {(first[0], *first[2:])}")

    graded = homology_dims_by_level(c)
    bad = []
    for key in set(graded) | direct.support():
        page, want = direct.dim(1, *key), graded.get(key, 0)
        if page != want:
            bad.append((*key, page, want))
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
    # Each bar is read once: essentials[n] is betti(barcode, n, top, top), and
    # a finite bar's multiplicity, multiplicity(barcode, n, s, s + m), is its own.
    essentials: Counter = Counter()
    finite: dict[int, list] = {}  # degree -> [(lifetime, multiplicity)]
    for e, k in barcode.entries():
        if e.birth <= top and (e.is_essential or e.birth + e.lifetime > top):
            essentials[e.degree] += k
        if not e.is_essential:
            finite.setdefault(e.degree, []).append((e.lifetime, k))
    bad = []
    for n in degrees:
        bars = finite.get(n, []) + finite.get(n - 1, [])
        steps = {1, *(m + 1 for m, _ in bars), *(r for r, _ in direct._rows.get(n, []))}
        for r in sorted(r for r in steps if r <= depth):
            lhs, rhs = direct.row_total(r, n), essentials[n] + sum(k for m, k in bars if m >= r)
            if lhs != rhs:
                bad.append((r, n, lhs, rhs))
                break
        if bad:
            break
    check("totalized-dimension-identity", bad,
          bad and f"first mismatch (r,n,pages,bars)={bad[0]}")

    try:
        recovered = _recursion(direct, start)
        ok = recovered == barcode
        _round_trip(direct, from_bars if ok else pages_from_barcode(recovered, depth))
        detail = "" if ok else "recovered barcode differs"
    except (InconsistentTableError, InsufficientRMaxError) as exc:
        ok, detail = False, str(exc)
    checks.append(CheckResult("barcode-round-trip", ok, detail))

    return VerifyReport(checks)
