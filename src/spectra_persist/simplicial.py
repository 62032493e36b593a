"""Simplicial text formats and filtration builders.

Simplicial format (line oriented, '#' starts a comment):

    simp <value:real> <v0> <v1> ... <vk>

Vertices omitted from the file are inserted at the smallest value of any
simplex containing them; missing faces of dimension >= 1 are an error.
A simplicial complex keeps each simplex's faces as positions
(``FilteredSimplicialComplex.faces``), found where closure and face order
are checked: by ``make_simplicial`` for a ``simp`` file, and by ``rips``
as it makes each simplex.  ``serialize_simplicial`` reads them, looks no
face up, and writes the chain-complex text format of
:mod:`~spectra_persist.ingest`.  That text is the one way from simplices to
a complex: the reading stage of a ``rips`` pipe parses and checks it, and
``simplicial_to_chain`` reads it back in process, so a ``simp`` file and a
pipe reach the same reader and the same validation.

Point clouds are either ``pt <x1> ... <xd>`` lines (equal dimension) or one
``dist <n>`` header followed by an n-by-n symmetric matrix, one row per
line.

The ``rips`` command loads this module and ``fields`` only; ``barcode``,
``betti``, ``pages`` and ``verify`` load it only for a ``simp`` input.
"""
from __future__ import annotations

import math
from itertools import combinations, repeat
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .errors import ClosureError, ParseError, UsageError, shorten
from .fields import FieldSpec, _data_lines, line_batches, parse_int

# ingest, and with it complexes and linalg, is imported by simplicial_to_chain,
# the one function that builds a complex, so the ``rips`` command never loads it
if TYPE_CHECKING:
    from .complexes import FilteredChainComplex


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


class FilteredSimplicialComplex(NamedTuple):
    """Simplices with real filtration values, closed under faces.

    ``simplices`` is in canonical order: by dimension, then value, then
    vertices; a simplex's position is its index there.  ``levels`` lists the
    distinct values in increasing order; a simplex's integer level is its
    value's index in that list.  ``faces`` holds, for each simplex, the
    positions of its faces in boundary-formula order: face i drops vertex i
    and has sign (-1)^i (a vertex has none), so the last face is the
    simplex less its last vertex.  ``make_simplicial`` and ``rips`` find the
    faces where they check closure and face order; build the complex
    through them, as ``serialize_simplicial`` trusts ``faces``.
    """
    simplices: tuple  # tuple[(verts tuple, value float)], canonical order
    levels: tuple     # tuple[float]
    faces: tuple      # tuple[tuple[int]], one per simplex, boundary order


def make_simplicial(simplices) -> FilteredSimplicialComplex:
    """Canonicalize and validate (verts, value) pairs.

    A repeated vertex or a duplicate simplex is a ``UsageError``, checked
    first.  Then each simplex, in the order given, has its faces looked up
    in lexicographic order: a missing one is a ``ClosureError``, one with a
    larger value a ``UsageError``, and the first fault found is raised.  The
    lookups give the positions ``faces`` records.
    """
    seen: dict[tuple, float] = {}
    for verts, value in simplices:
        key = tuple(sorted(verts))
        if len(set(key)) != len(key):
            raise UsageError(f"repeated vertex in simplex {shorten(repr(verts))}")
        if key in seen:
            raise UsageError(f"duplicate simplex {shorten(repr(key))}")
        seen[key] = float(value)
    ordered = tuple(sorted(seen.items(), key=lambda kv: (len(kv[0]), kv[1], kv[0])))
    position = {verts: k for k, (verts, _) in enumerate(ordered)}
    faces: list = [()] * len(ordered)
    for verts, value in seen.items():
        if len(verts) == 1:
            continue
        found = []
        # combinations drops the last vertex first: the boundary order reversed
        for face in combinations(verts, len(verts) - 1):
            k = position.get(face)
            if k is None:
                raise ClosureError(
                    f"missing face {shorten(repr(face))} of {shorten(repr(verts))}")
            if ordered[k][1] > value:
                raise UsageError(f"face {shorten(repr(face))} at {ordered[k][1]} "
                                 f"appears after {shorten(repr(verts))} at {value}")
            found.append(k)
        faces[position[verts]] = tuple(reversed(found))
    levels = tuple(sorted(set(seen.values())))
    return FilteredSimplicialComplex(ordered, levels, tuple(faces))


def parse_simplicial(text: str) -> FilteredSimplicialComplex:
    entries: list[tuple[tuple, float]] = []
    listed: set[tuple] = set()
    vertex_min: dict[int, float] = {}
    for line_no, toks in _data_lines(text):
        if toks[0] != "simp":
            raise ParseError(f"unknown directive {shorten(toks[0])!r}", line_no)
        if len(toks) < 3:
            raise ParseError("expected 'simp <value> <v0> [<v1> ...]'", line_no)
        try:
            value = _real(toks[1])
            verts = tuple(sorted(parse_int(t) for t in toks[2:]))
        except ValueError:
            raise ParseError("bad simplex line", line_no) from None
        if len(set(verts)) != len(verts):
            raise ParseError(f"repeated vertex in {shorten(repr(verts))}", line_no)
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
    """One generator per simplex, with the alternating-sign boundary: the
    complex ``parse_complex`` reads, and validates, from the text
    ``serialize_simplicial`` writes."""
    from .ingest import parse_complex
    return parse_complex(serialize_simplicial(fsc, field), field)


def serialize_simplicial(fsc: FilteredSimplicialComplex, field: FieldSpec,
                         comments: Sequence[str] = ()) -> str:
    """The chain-complex text of ``fsc`` over ``field``: a generator per
    simplex, named ``s`` and its vertices joined by ``_``, at its dimension
    and level (its value's index in ``fsc.levels``), whose ``bnd`` line gives
    face i the sign (-1)**i.  No complex is built or checked: ``parse_complex``
    validates the text where it is read.

    ``fsc.simplices`` is already in (degree, level, id) order, and a simplex's
    id within its degree is its position among them, so a face's position in
    ``fsc.simplices`` orders the faces of a ``bnd`` line by (level, id), the
    order of a column's rows.

    The text is the lines of :func:`_simplicial_lines`, each ended by a
    newline, joined from :func:`~spectra_persist.fields.line_batches`, so the
    lines are never all held beside the text; the ``rips`` command writes
    those batches as they are made and never holds the text.
    """
    return "".join(line_batches(_simplicial_lines(fsc, field, comments)))


def _simplicial_lines(fsc: FilteredSimplicialComplex, field: FieldSpec,
                      comments: Sequence[str] = ()):
    """The lines of ``serialize_simplicial``'s text, without line ends, made
    one at a time.  The labels, levels and signs are all made before the
    first line is given, so once output has begun only a write can fail."""
    level = {value: k for k, value in enumerate(fsc.levels)}
    # face i has sign (-1)**i; a simplex of over 64 vertices has over 2**64 faces
    signs = (field.format(1), field.format(-1)) * 32
    # each name is made from its last face's, which drops the last vertex
    labels: list[str] = []
    for (verts, _), faces in zip(fsc.simplices, fsc.faces):
        labels.append(f"{labels[faces[-1]]}_{verts[-1]}" if faces else f"s{verts[0]}")
    for comment in comments:
        yield f"# {comment}"
    yield f"field {field.token()}"
    for label, (verts, value) in zip(labels, fsc.simplices):
        yield f"gen {label} {len(verts) - 1} {level[value]}"
    # a simplex's faces are distinct, so the sort reads no sign
    for label, faces in zip(labels, fsc.faces):
        if faces:
            yield f"bnd {label} " + " ".join([f"{sign} {labels[f]}"
                                              for f, sign in sorted(zip(faces, signs))])


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
                if expected < 0:
                    raise ValueError(f"negative size {expected}")
            except ValueError:
                raise ParseError("bad matrix size", line_no) from None
        elif expected is not None:
            try:
                rows.append([_real(t) for t in toks])
            except ValueError:
                raise ParseError("bad distance entry", line_no) from None
        else:
            raise ParseError(f"unknown directive {shorten(toks[0])!r}", line_no)
    if expected is not None:
        if len(rows) != expected or any(len(r) != expected for r in rows):
            size = shorten(str(expected))
            raise ParseError(f"expected a {size}x{size} matrix")
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


# the most simplices rips makes, over all dimensions: with no threshold, n points
# give up to 2^n - 1 of them.  The rips process takes about 400 bytes and 4 µs
# a simplex (30-50 planar points, --max-dim 3, on a 2-vCPU Xeon VM), so about
# 0.4 GB and 4 s at the cap, 64 times the 15.7k simplices of perfbench's
# largest workload
RIPS_MAX = 1_000_000


def _too_many(dim: int) -> UsageError:
    return UsageError(f"the Rips complex passes {RIPS_MAX} simplices at dimension "
                      f"{dim}; lower the max dimension or the threshold")


def rips(pc: PointCloud, max_dim: int, threshold: Optional[float] = None) -> FilteredSimplicialComplex:
    """All simplices of dimension <= max_dim with diameter <= threshold.

    The filtration value of a simplex is its diameter (vertices enter at 0).
    threshold None means no bound, which is only feasible for small clouds.

    Each simplex is made once, from its parent (itself less its top vertex)
    and one of the parent's candidates: the vertices above its top one
    within the threshold of all its vertices, each kept with its largest
    distance to them (neighbour-list expansion, Zomorodian 2010).  So
    vertices strictly increase, no simplex is made twice, and every face of
    a simplex is a simplex no wider: closure and face order hold by
    construction, with nothing left to check.  A simplex's faces are found
    through its parent's (as in the simplex tree, Boissonnat & Maria 2014):
    dropping vertex i below the top one v gives the parent's face i plus v,
    read from a ``{v: position}`` map of that face's cofaces, kept only for
    the dimension being extended.  Each dimension is made in lexicographic
    order and sorted once, stably by diameter.

    The simplices of a dimension are the candidates built for it while the
    dimension below is made, so a running count of the simplices and of
    those candidate lists, added to as each list is built, refuses with a
    ``UsageError`` the first dimension that would take the complex past
    ``RIPS_MAX`` simplices, before any of its simplices is made.
    """
    if max_dim < 0:
        raise UsageError("max_dim must be >= 0")
    dist = pc._d
    n = len(dist)
    bound = math.inf if threshold is None else threshold
    simplices = [((u,), 0.0) for u in range(n)]
    faces: list = [()] * n
    values = {0.0} if n else set()
    # the simplices to extend, in lexicographic order, as (vertices, diameter,
    # position, faces, candidates); a candidate is a (vertex, reach) pair,
    # reach its largest distance to the simplex's vertices
    layer = [((u,), 0.0, u, (), [(v, row[v]) for v in range(u + 1, n) if row[v] <= bound])
             for u, row in enumerate(dist)]
    cofaces: dict[int, dict[int, int]] = {}
    count = n + sum(len(cands) for *_, cands in layer)  # the simplices up to dimension 1
    if max_dim and count > RIPS_MAX:
        raise _too_many(1)
    for dim in range(1, max_dim + 1):
        extend = dim < max_dim
        # the new simplices, in lexicographic order: vertices, diameters,
        # faces and, if they are to be extended, candidates
        made, diams, made_faces, onward = [], [], [], []
        for verts, diam, pos, below, cands in layer:
            if not cands:
                continue
            tops = [v for v, _ in cands]
            made += [verts + (v,) for v in tops]
            diams += [reach if reach > diam else diam for _, reach in cands]
            # a vertex's one face is the empty simplex, and vertex v is at position v
            maps = [cofaces[f] for f in below] if below else [range(n)]
            made_faces += zip(*[[m[v] for v in tops] for m in maps], repeat(pos))
            if extend:
                more = [[(w, d if d > r else r) for w, r in cands[i + 1:]
                         if (d := dist[v][w]) <= bound] for i, v in enumerate(tops)]
                onward += more
                count += sum(map(len, more))
                if count > RIPS_MAX:
                    raise _too_many(dim + 1)
        if not made:  # no simplex of this dimension, so none above it
            break
        # a stable sort by diameter keeps ties in lexicographic order
        order = sorted(range(len(made)), key=diams.__getitem__)
        start = len(simplices)
        simplices += [(made[i], diams[i]) for i in order]
        faces += [made_faces[i] for i in order]
        values.update(diams)
        if extend:
            position = [0] * len(order)
            for k, i in enumerate(order, start):
                position[i] = k
            # {v: position of it + v} of each simplex one dimension below the new ones
            cofaces = {}
            for verts, below, k in zip(made, made_faces, position):
                cofaces.setdefault(below[-1], {})[verts[-1]] = k
            layer = zip(made, diams, position, made_faces, onward)
    return FilteredSimplicialComplex(tuple(simplices), tuple(sorted(values)), tuple(faces))
