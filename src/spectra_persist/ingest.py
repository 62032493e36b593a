"""Text formats and filtration builders.

Chain-complex format (line oriented, '#' starts a comment):

    field <p|q>
    gen <name> <degree:int> <filtration:int>
    bnd <source-name> <coeff> <target-name> [<coeff> <target-name> ...]

Coefficients use the field's text form (decimal residue over GF(p),
``num`` or ``num/den`` over the rationals).  Repeated bnd lines for one
source accumulate.  The optional ``field`` line records the field the
coefficients were written in (a prime, or ``q``); a file may hold at most
one, and it must name the field the file is read over, since a GF(3)
residue such as ``2`` is a different number over GF(5).

Simplicial format:

    simp <value:real> <v0> <v1> ... <vk>

Vertices omitted from the file are inserted at the smallest value of any
simplex containing them; missing faces of dimension >= 1 are an error.

Point clouds are either ``pt <x1> ... <xd>`` lines (equal dimension) or one
``dist <n>`` header followed by an n-by-n symmetric matrix, one row per
line.
"""
from __future__ import annotations

import math
from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .errors import ClosureError, ParseError, UsageError
from .fields import FieldSpec, Scalar, field_from_text, parse_int

# complexes (and with it linalg) is imported by the functions that build a
# complex, so the ``rips`` command, which only writes text, never loads it
if TYPE_CHECKING:
    from .complexes import FilteredChainComplex


def _lines(text: str):
    """(line number, text) of each line with its comment and blanks stripped,
    empty lines skipped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _data_lines(text: str):
    for line_no, line in _lines(text):
        yield line_no, line.split()


_REAL_CHARS = frozenset("0123456789+-.eE")


def _real(token: str) -> float:
    """A finite float written with ASCII digits, sign, point and exponent only;
    anything else raises ValueError, as ``float`` does for bad text.

    ``float`` alone also takes ``1_0``, non-ASCII digits, surrounding blanks,
    NaN and infinities.
    """
    if not _REAL_CHARS.issuperset(token):
        raise ValueError(f"invalid number {token!r}")
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is not finite")
    return value


# -- chain complexes ----------------------------------------------------------

def parse_complex(text: str, field: FieldSpec) -> FilteredChainComplex:
    """Parse and validate a chain complex; errors carry line numbers.

    Two passes: the first reads the ``field`` and ``gen`` lines, so every
    error they hold is raised before any ``bnd`` error, and keeps of each
    ``bnd`` line only its number and text; the second splits each kept line
    again and drops its tokens once its entries are appended to the column.

    The columns are built canonical: each coefficient comes from
    ``field.parse`` or ``field.add``, each row is a generator one degree
    below, and each column's ``(row, coeff)`` list is sorted once, with
    repeated rows summed and zeros dropped in the same step.  So the complex
    adopts them without the constructor's copy and entry check;
    ``ensure_valid`` still runs, since this is where a pipe's text is trusted.
    """
    from .complexes import FilteredChainComplex, Generator
    gens: dict[str, Generator] = {}
    by_degree: dict[int, list[Generator]] = {}
    pending: list[tuple[int, str]] = []  # (line number, text) of each bnd line
    written: Optional[FieldSpec] = None
    ints: dict[str, int] = {}  # each distinct degree or filtration token is parsed once
    for line_no, line in _lines(text):
        toks = line.split()
        kind = toks[0]
        if kind == "field":
            if len(toks) != 2:
                raise ParseError("expected 'field <p|q>'", line_no)
            try:
                declared = field_from_text(toks[1])
            except UsageError as exc:
                raise ParseError(str(exc), line_no) from None
            if written is not None:
                raise ParseError(
                    f"second field line names {declared}, the first named {written}",
                    line_no)
            if declared != field:
                raise ParseError(
                    f"complex is written over {declared}, not the requested {field}",
                    line_no)
            written = declared
        elif kind == "gen":
            if len(toks) != 4:
                raise ParseError("expected 'gen <name> <degree> <filtration>'", line_no)
            name = toks[1]
            if name in gens:
                raise ParseError(f"duplicate generator {name!r}", line_no)
            try:
                degree = ints.get(toks[2])
                if degree is None:
                    degree = ints[toks[2]] = parse_int(toks[2])
                filtration = ints.get(toks[3])
                if filtration is None:
                    filtration = ints[toks[3]] = parse_int(toks[3])
            except ValueError:
                raise ParseError("degree and filtration must be integers", line_no) from None
            g = Generator(len(by_degree.setdefault(degree, [])), degree, filtration, name)
            by_degree[degree].append(g)
            gens[name] = g
        elif kind == "bnd":
            pending.append((line_no, line))
        else:
            raise ParseError(f"unknown directive {kind!r}", line_no)

    boundary: dict[int, list[list]] = {n: [[] for _ in gs] for n, gs in by_degree.items()}
    # each distinct coefficient token is parsed once; a bad one raises where first met
    coeffs: dict[str, Scalar] = {}
    zeros = False  # whether some coefficient token is zero
    for line_no, line in pending:
        toks = line.split()
        if len(toks) < 4 or len(toks) % 2 != 0:
            raise ParseError(
                "expected 'bnd <source> <coeff> <target> [<coeff> <target> ...]'", line_no)
        source = toks[1]
        if source not in gens:
            raise ParseError(f"boundary for unknown generator {source!r}", line_no)
        src = gens[source]
        col = boundary[src.degree][src.gid]
        for k in range(2, len(toks), 2):
            coeff = coeffs.get(toks[k])
            if coeff is None:
                try:
                    coeff = coeffs[toks[k]] = field.parse(toks[k])
                except UsageError as exc:
                    raise ParseError(str(exc), line_no) from None
                zeros = zeros or field.is_zero(coeff)
            target = toks[k + 1]
            tgt = gens.get(target)
            if tgt is None:
                raise ParseError(f"boundary references unknown generator {target!r}",
                                 line_no)
            if tgt.degree != src.degree - 1:
                raise ParseError(
                    f"boundary of {source!r} (degree {src.degree}) cannot hit "
                    f"{target!r} (degree {tgt.degree})", line_no)
            col.append((tgt.gid, coeff))
    del pending  # the lines are read: free them before the check below runs
    for cols in boundary.values():
        for gid, col in enumerate(cols):
            if col:
                cols[gid] = _canonical(field, col, zeros)

    c = FilteredChainComplex._adopt(field, by_degree, boundary)
    c.ensure_valid()
    return c


def _canonical(field: FieldSpec, col: list, zeros: bool) -> list:
    """``col`` sorted by row, with repeated rows summed and zeros dropped;
    ``zeros`` tells whether a coefficient in it may be zero."""
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


def serialize_complex(c: FilteredChainComplex, comments: Sequence[str] = ()) -> str:
    """Canonical text form: the field line, then generators sorted by
    (degree, filtration, id)."""
    lines = [f"# {comment}" for comment in comments]
    lines.append(f"field {c.field.token()}")
    ordered = sorted(c.all_generators(), key=lambda g: (g.degree, g.filtration, g.gid))
    for g in ordered:
        lines.append(f"gen {g.label()} {g.degree} {g.filtration}")
    texts: dict = {}  # each distinct coefficient is formatted once
    for g in ordered:
        col = c.column(g.degree, g.gid)
        if not col:
            continue
        below = c.gens(g.degree - 1)
        parts = [f"bnd {g.label()}"]
        # entry order must survive the gid reassignment a reparse performs
        for r, v in sorted(col, key=lambda rv: (below[rv[0]].filtration, rv[0])):
            text = texts.get(v)
            if text is None:
                text = texts[v] = c.field.format(v)
            parts.append(text)
            parts.append(below[r].label())
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


# -- simplicial complexes ------------------------------------------------------

class FilteredSimplicialComplex(NamedTuple):
    """Simplices with real filtration values, closed under faces.

    ``levels`` lists the distinct values in increasing order; a simplex's
    integer level is its value's index in that list.
    """
    simplices: tuple  # tuple[(verts tuple, value float)], canonical order
    levels: tuple     # tuple[float]


def make_simplicial(simplices) -> FilteredSimplicialComplex:
    """Canonicalize and validate (verts, value) pairs."""
    seen: dict[tuple, float] = {}
    for verts, value in simplices:
        key = tuple(sorted(verts))
        if len(set(key)) != len(key):
            raise UsageError(f"repeated vertex in simplex {verts!r}")
        if key in seen:
            raise UsageError(f"duplicate simplex {key!r}")
        seen[key] = float(value)
    for verts, value in seen.items():
        if len(verts) == 1:
            continue
        for face in combinations(verts, len(verts) - 1):
            if face not in seen:
                raise ClosureError(f"missing face {face!r} of {verts!r}")
            if seen[face] > value:
                raise UsageError(
                    f"face {face!r} at {seen[face]} appears after {verts!r} at {value}")
    ordered = tuple(sorted(seen.items(), key=lambda kv: (len(kv[0]), kv[1], kv[0])))
    levels = tuple(sorted(set(seen.values())))
    return FilteredSimplicialComplex(ordered, levels)


def parse_simplicial(text: str) -> FilteredSimplicialComplex:
    entries: list[tuple[tuple, float]] = []
    listed: set[tuple] = set()
    vertex_min: dict[int, float] = {}
    for line_no, toks in _data_lines(text):
        if toks[0] != "simp":
            raise ParseError(f"unknown directive {toks[0]!r}", line_no)
        if len(toks) < 3:
            raise ParseError("expected 'simp <value> <v0> [<v1> ...]'", line_no)
        try:
            value = _real(toks[1])
            verts = tuple(sorted(parse_int(t) for t in toks[2:]))
        except ValueError:
            raise ParseError("bad simplex line", line_no) from None
        if len(set(verts)) != len(verts):
            raise ParseError(f"repeated vertex in {verts!r}", line_no)
        entries.append((verts, value))
        listed.add(verts)
        for v in verts:
            vertex_min[v] = min(vertex_min.get(v, math.inf), value)
    for v, value in sorted(vertex_min.items()):
        if (v,) not in listed:
            entries.append(((v,), value))
    try:
        return make_simplicial(entries)
    except (UsageError, ClosureError) as exc:
        raise ParseError(str(exc)) from None


def simplicial_to_chain(fsc: FilteredSimplicialComplex, field: FieldSpec) -> FilteredChainComplex:
    """One generator per simplex; the usual alternating-sign boundary."""
    from .complexes import FilteredChainComplex, Generator
    # faces come before their simplex; a column's faces are distinct and its
    # signs +-1 nonzero in every field, so sorting its entries makes it canonical
    level = {value: k for k, value in enumerate(fsc.levels)}
    signs = (field.one, field.normalize(-1))
    by_degree: dict[int, list[Generator]] = {}
    boundary: dict[int, list[list]] = {}
    gid_of: dict[tuple, int] = {}
    for verts, value in fsc.simplices:
        n = len(verts) - 1
        gens = by_degree.setdefault(n, [])
        gid_of[verts] = gid = len(gens)
        gens.append(Generator(gid, n, level[value], "s" + "_".join(map(str, verts))))
        if n:
            try:
                col = [(gid_of[verts[:i] + verts[i + 1:]], signs[i & 1]) for i in range(n + 1)]
            except KeyError as exc:
                raise ClosureError(f"missing face {exc.args[0]!r} of {verts!r}") from None
            boundary.setdefault(n, []).append(sorted(col))
    c = FilteredChainComplex(field, by_degree, boundary)
    c.ensure_valid()
    return c


def serialize_simplicial(fsc: FilteredSimplicialComplex, field: FieldSpec,
                         comments: Sequence[str] = ()) -> str:
    """``serialize_complex(simplicial_to_chain(fsc, field), comments)``, written
    straight from the simplices, with no complex built or checked.

    ``fsc.simplices`` is already in (degree, level, id) order, and a simplex's
    id within its degree is its position among them, so a face's position in
    ``fsc.simplices`` orders the faces of a ``bnd`` line by (level, id).  The
    text is checked where it is read: ``parse_complex`` validates it.
    """
    level = {value: k for k, value in enumerate(fsc.levels)}
    signs = (field.format(field.one), field.format(field.normalize(-1)))
    lines = [f"# {comment}" for comment in comments]
    lines.append(f"field {field.token()}")
    bnds: list[str] = []
    labels: list[str] = []
    position: dict[tuple, int] = {}
    for k, (verts, value) in enumerate(fsc.simplices):
        label = "s" + "_".join(map(str, verts))
        labels.append(label)
        position[verts] = k
        n = len(verts) - 1
        lines.append(f"gen {label} {n} {level[value]}")
        if n:
            try:
                faces = sorted([(position[verts[:i] + verts[i + 1:]], i & 1)
                                for i in range(n + 1)])
            except KeyError as exc:
                raise ClosureError(f"missing face {exc.args[0]!r} of {verts!r}") from None
            bnds.append(f"bnd {label} " + " ".join(f"{signs[sign]} {labels[face]}"
                                                   for face, sign in faces))
    lines += bnds
    return "\n".join(lines) + "\n"


# -- point clouds and the Rips filtration -------------------------------------

class PointCloud:
    """Coordinates or an explicit distance matrix."""

    def __init__(self, dists: list):
        n = len(dists)
        for i in range(n):
            if len(dists[i]) != n:
                raise UsageError("distance matrix must be square")
            if dists[i][i] != 0.0:
                raise UsageError(f"nonzero diagonal at {i}")
            for j in range(i + 1, n):
                if not math.isfinite(dists[i][j]):  # finite points can be too far apart
                    raise UsageError(f"non-finite distance at ({i}, {j})")
                if dists[i][j] != dists[j][i]:
                    raise UsageError(f"asymmetric distances at ({i}, {j})")
                if dists[i][j] < 0:
                    raise UsageError(f"negative distance at ({i}, {j})")
        self._d = dists

    @classmethod
    def from_points(cls, points: Sequence[Sequence[float]]) -> "PointCloud":
        pts = [tuple(float(x) for x in p) for p in points]
        if pts and any(len(p) != len(pts[0]) for p in pts):
            raise UsageError("points must share one dimension")
        return cls([[math.dist(a, b) for b in pts] for a in pts])

    @classmethod
    def from_distances(cls, dists) -> "PointCloud":
        return cls([[float(x) for x in row] for row in dists])

    def __len__(self) -> int:
        return len(self._d)

    def distance(self, i: int, j: int) -> float:
        return self._d[i][j]


def parse_point_cloud(text: str) -> PointCloud:
    rows: list[list[float]] = []
    points: list[list[float]] = []
    expected: Optional[int] = None
    for line_no, toks in _data_lines(text):
        if toks[0] == "pt":
            if expected is not None:
                raise ParseError("cannot mix pt lines with a dist matrix", line_no)
            try:
                points.append([_real(t) for t in toks[1:]])
            except ValueError:
                raise ParseError("bad coordinate", line_no) from None
        elif toks[0] == "dist":
            if len(toks) != 2:
                raise ParseError("expected 'dist <n>'", line_no)
            if expected is not None:
                raise ParseError("second dist header", line_no)
            if points:
                raise ParseError("cannot mix pt lines with a dist matrix", line_no)
            try:
                expected = parse_int(toks[1])
            except ValueError:
                raise ParseError("bad matrix size", line_no) from None
        elif expected is not None:
            try:
                rows.append([_real(t) for t in toks])
            except ValueError:
                raise ParseError("bad distance entry", line_no) from None
        else:
            raise ParseError(f"unknown directive {toks[0]!r}", line_no)
    if expected is not None:
        if len(rows) != expected or any(len(r) != expected for r in rows):
            raise ParseError(f"expected a {expected}x{expected} matrix")
        try:
            return PointCloud.from_distances(rows)
        except UsageError as exc:
            raise ParseError(str(exc)) from None
    if not points:
        raise ParseError("no points found")
    try:
        return PointCloud.from_points(points)
    except UsageError as exc:
        raise ParseError(str(exc)) from None


def rips(pc: PointCloud, max_dim: int, threshold: Optional[float] = None) -> FilteredSimplicialComplex:
    """All simplices of dimension <= max_dim with diameter <= threshold.

    The filtration value of a simplex is its diameter (vertices enter at 0).
    threshold None means no bound, which is only feasible for small clouds.
    """
    if max_dim < 0:
        raise UsageError("max_dim must be >= 0")
    n = len(pc)
    simplices: list[tuple[tuple, float]] = [((i,), 0.0) for i in range(n)]
    frontier: list[tuple[tuple, float]] = list(simplices)
    for _ in range(max_dim):
        if not frontier:  # no simplex of this dimension, so none above it
            break
        nxt: list[tuple[tuple, float]] = []
        for verts, diam in frontier:
            for v in range(verts[-1] + 1, n):
                d = diam
                ok = True
                for u in verts:
                    duv = pc.distance(u, v)
                    if threshold is not None and duv > threshold:
                        ok = False
                        break
                    if duv > d:
                        d = duv
                if ok:
                    nxt.append((verts + (v,), d))
        simplices.extend(nxt)
        frontier = nxt
    return make_simplicial(simplices)
