"""Independent brute-force oracles used to freeze and cross-check expectations.

Everything here works on dense row-lists with its own Gaussian elimination,
deliberately separate from the library's sparse column kernels: an oracle
must not share the code path it is checking.  The page oracle below is the
one exception in style (it spans subquotients with library kernels and
measures them with library ranks, dim((A + B) / B) = rank([A | B]) -
rank(B)), kept to pin the pair-counting direct engine against the
literal subquotient construction.
"""
from __future__ import annotations

from itertools import combinations

from spectra_persist.complexes import FilteredChainComplex, Generator, Violation
from spectra_persist.errors import (ClosureError, InconsistentTableError,
                                    InsufficientRMaxError, UsageError)
from spectra_persist.fields import FieldSpec
from spectra_persist.simplicial import FilteredSimplicialComplex
from spectra_persist.linalg import SparseMatrix, axpy, kernel, rank
from spectra_persist.persistence import INF, Barcode, BarEntry


def dense_rank(rows: list, field: FieldSpec) -> int:
    """Row-reduction rank of a dense matrix (list of row lists)."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = None
        for i in range(rank, n_rows):
            if not field.is_zero(m[i][col]):
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = field.inv(m[rank][col])
        m[rank] = [field.mul(inv, x) for x in m[rank]]
        for i in range(n_rows):
            if i != rank and not field.is_zero(m[i][col]):
                f = m[i][col]
                m[i] = [field.add(x, field.neg(field.mul(f, y))) for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def dense_kernel(rows: list, field: FieldSpec) -> list:
    """Kernel basis vectors (dense, length n_cols) of a dense matrix."""
    if not rows:
        return []
    m = [list(r) for r in rows]
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    rank = 0
    for col in range(n_cols):
        pivot = None
        for i in range(rank, n_rows):
            if not field.is_zero(m[i][col]):
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = field.inv(m[rank][col])
        m[rank] = [field.mul(inv, x) for x in m[rank]]
        for i in range(n_rows):
            if i != rank and not field.is_zero(m[i][col]):
                f = m[i][col]
                m[i] = [field.add(x, field.neg(field.mul(f, y))) for x, y in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == n_rows:
            break
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero] * n_cols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(m[r][fc])
        basis.append(vec)
    return basis


def _dense_boundary(c: FilteredChainComplex, n: int, col_filter) -> list:
    """Rows of d_n restricted to the columns passing col_filter (dense)."""
    field = c.field
    n_below = c.n_gens(n - 1)
    cols = [g for g in c.gens(n) if col_filter(g)]
    rows = [[field.zero] * len(cols) for _ in range(n_below)]
    for j, g in enumerate(cols):
        for r, v in c.column(n, g.gid):
            rows[r][j] = v
    return rows


def cycles_dim(c: FilteredChainComplex, n: int, level: int) -> int:
    """dim of the cycles of degree n inside filtration level `level`."""
    cols = [g for g in c.gens(n) if g.filtration <= level]
    if not cols:
        return 0
    dense = _dense_boundary(c, n, lambda g: g.filtration <= level)
    return len(cols) - dense_rank(dense, c.field)


def persistent_betti(c: FilteredChainComplex, n: int, i: int, j: int) -> int:
    """rank of H_n(F^i) -> H_n(F^j), i <= j, by dense elimination.

    dim Z_n(F^i) minus dim(Z_n(F^i) ∩ d(F^j C_{n+1})), the intersection
    computed as a kernel of the stacked system [Z | B] (a combination of
    Z-columns equals a combination of B-columns).
    """
    field = c.field
    z_cols = [g for g in c.gens(n) if g.filtration <= i]
    if not z_cols:
        return 0
    dense = _dense_boundary(c, n, lambda g: g.filtration <= i)
    z_basis = dense_kernel(dense, field) if dense else []
    if not dense:  # no rows below: every column is a cycle
        z_basis = [[field.one if k == t else field.zero for k in range(len(z_cols))]
                   for t in range(len(z_cols))]
    # expand cycle vectors to the full generator space of degree n
    n_amb = c.n_gens(n)
    z_vectors = []
    for vec in z_basis:
        full = [field.zero] * n_amb
        for k, g in enumerate(z_cols):
            full[g.gid] = vec[k]
        z_vectors.append(full)
    b_vectors = []
    for g in c.gens(n + 1):
        if g.filtration <= j:
            full = [field.zero] * n_amb
            for r, v in c.column(n + 1, g.gid):
                full[r] = v
            b_vectors.append(full)
    dim_z = len(z_vectors)
    if not b_vectors or not z_vectors:
        return dim_z
    stacked = [[*(zv[r] for zv in z_vectors), *(bv[r] for bv in b_vectors)]
               for r in range(n_amb)]
    rank_zb = dense_rank(stacked, field)
    rank_b = dense_rank([[bv[r] for bv in b_vectors] for r in range(n_amb)], field)
    dim_intersection = dim_z + rank_b - rank_zb
    return dim_z - dim_intersection


def barcode_by_rank(c: FilteredChainComplex) -> Barcode:
    """Full barcode via inclusion-exclusion on persistent Betti ranks.

        mu[n,i,j] = b[i,j-1] - b[i,j] - b[i-1,j-1] + b[i-1,j]
    """
    if not c.degrees():
        return Barcode()
    field_levels = sorted({g.filtration for g in c.all_generators()})
    lo, hi = field_levels[0], field_levels[-1]
    counts: dict[BarEntry, int] = {}

    def b(n, i, j):
        if i < lo:
            return 0
        return persistent_betti(c, n, min(i, hi), min(j, hi))

    degrees = c.degrees()
    for n in degrees:
        for i in range(lo, hi + 1):
            for j in range(i + 1, hi + 1):
                mu = b(n, i, j - 1) - b(n, i, j) - b(n, i - 1, j - 1) + b(n, i - 1, j)
                if mu:
                    counts[BarEntry(n, i, j - i)] = counts.get(BarEntry(n, i, j - i), 0) + mu
            essential = b(n, i, hi) - b(n, i - 1, hi)
            if essential:
                counts[BarEntry(n, i, INF)] = essential
    return Barcode(counts)


def pairs_by_rank(c: FilteredChainComplex) -> list:
    """Sorted ``(n, row gid, column gid)`` of every pair of every d_n, by the
    pairing lemma, from dense ranks alone.

    Per degree the columns of d_n, and its rows one degree below, are ordered
    by (filtration, gid).  With r(i, j) the rank of the block of rows i
    onwards and columns up to j, column j pairs with row i iff
    r(i, j) - r(i+1, j) - r(i, j-1) + r(i+1, j-1) = 1 (Edelsbrunner & Harer,
    "Computational Topology", AMS 2010, VII.1): the lowest nonzero row of
    column j after any reduction that adds earlier columns to later ones.
    """
    out = []
    for n in c.degrees():
        rows, cols = [sorted(c.gens(m), key=lambda g: (g.filtration, g.gid)) for m in (n - 1, n)]
        if not rows:
            continue
        by_gid = _dense_boundary(c, n, lambda g: True)
        m = [[by_gid[t.gid][g.gid] for g in cols] for t in rows]
        # r[i][j]: rows i onwards, the first j columns; an empty block has rank 0
        r = [[dense_rank([row[:j] for row in m[i:]], c.field) if i < len(rows) and j else 0
              for j in range(len(cols) + 1)] for i in range(len(rows) + 1)]
        out += [(n, rows[i].gid, cols[j].gid) for i in range(len(rows)) for j in range(len(cols))
                if r[i][j + 1] - r[i + 1][j + 1] - r[i][j] + r[i + 1][j] == 1]
    return sorted(out)


# -- literal subquotient page construction ------------------------------------

def subquotient_dim(numerator: SparseMatrix, denominator: SparseMatrix, field: FieldSpec) -> int:
    """dim((A + B) / B) for spans A = numerator, B = denominator."""
    stacked = SparseMatrix(numerator.n_rows, numerator.columns + denominator.columns)
    return rank(stacked, field) - rank(denominator, field)


def _span_z(c: FilteredChainComplex, r: int, n: int, s: int) -> SparseMatrix:
    """Column span of { x in F^s C_n : d(x) in F^(s-r) C_(n-1) }."""
    field = c.field
    n_amb = c.n_gens(n)
    cols = [g for g in c.gens(n) if g.filtration <= s]
    below = c.gens(n - 1)
    restricted = []
    for g in cols:
        restricted.append([(row, v) for row, v in c.column(n, g.gid)
                           if below[row].filtration > s - r])
    combos = kernel(SparseMatrix(c.n_gens(n - 1), restricted), field)
    vectors = []
    for combo in combos.columns:
        vectors.append(sorted((cols[k].gid, v) for k, v in combo))
    return SparseMatrix(n_amb, vectors)


def pages_direct_spans(c: FilteredChainComplex, r_max: int):
    """Page dims by materializing the numerator and denominator spans.

    Returns a dict {(r, n, s): dim} over the finite pages only; the limit
    row has its own oracle via persistent_betti.
    """
    field = c.field
    dims: dict = {}
    cells = sorted({(g.degree, g.filtration) for g in c.all_generators()})
    for n, s in cells:
        n_amb = c.n_gens(n)
        for r in range(1, r_max + 1):
            numerator = _span_z(c, r, n, s)
            den_cols = list(_span_z(c, r - 1, n, s - 1).columns)
            for vec in _span_z(c, r - 1, n + 1, s + r - 1).columns:
                img: list = []
                for row, v in vec:
                    img = axpy(field, img, v, c.column(n + 1, row))
                if img:
                    den_cols.append(img)
            denominator = SparseMatrix(n_amb, den_cols)
            val = subquotient_dim(numerator, denominator, field)
            if val:
                dims[(r, n, s)] = val
    return dims


# -- dense barcode recovery ----------------------------------------------------

def recover_barcode_dense(p, s_min: int) -> Barcode:
    """``recover_barcode`` by the full recursion over every (s, n, m).

        nu[n, s, m] = dim(m, n, s) - dim(m+1, n, s) - nu[n-1, s-m, m]

    walked for every birth level s_min..(top of the support), every degree
    from the lowest in the support to one above the highest, and every
    1 <= m < r_max, then checked page by page against the closed form of
    the bars it found; the same errors, with the same messages, in the same
    order as the library's sparse walk.
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
    result = Barcode(counts)
    back = dense_pages_from_barcode(result, p.r_max)
    pages = [*range(1, p.r_max + 1), INF]
    for n, s in sorted(support | back.support()):
        if any(p.dim(r, n, s) != back.dim(r, n, s) for r in pages):
            raise InconsistentTableError(
                f"no complex has this table: its bars give other pages at (n={n}, s={s})")
    return result


# -- dense page tables -----------------------------------------------------------

def _page_key(r):
    return (r == INF, r if r != INF else 0)


class DensePageTable:
    """A page table stored one entry per nonzero (r, n, s), every page spelled out.

    The same reading interface as ``spectral.PageTable`` (which stores runs
    over r instead), kept as the literal definition to compare it against.
    """

    def __init__(self, r_max: int, dims):
        self.r_max = r_max
        self._dims = {key: d for key, d in dict(dims).items() if d}

    def _check_r(self, r) -> None:
        if r != INF and not 1 <= r <= self.r_max:
            raise UsageError(f"page index {r!r} outside 1..{self.r_max} and inf")

    def dim(self, r, n: int, s: int) -> int:
        self._check_r(r)
        return self._dims.get((r, n, s), 0)

    def support(self) -> set:
        return {(n, s) for (_, n, s) in self._dims}

    def row_total(self, r, n: int) -> int:
        self._check_r(r)
        return sum(d for (q, m, _), d in self._dims.items() if q == r and m == n)

    def cells(self) -> list:
        return [(r, n, s, d) for (r, n, s), d in
                sorted(self._dims.items(), key=lambda item: (*_page_key(item[0][0]),
                                                             *item[0][1:]))]

    def diff(self, other: "DensePageTable") -> list:
        out = []
        for key in set(self._dims) | set(other._dims):
            a, b = self._dims.get(key, 0), other._dims.get(key, 0)
            if a != b:
                out.append((*key, a, b))
        out.sort(key=lambda t: (*_page_key(t[0]), t[1], t[2]))
        return out

    def to_lines(self, sep: str = " ") -> list:
        return [f"# r_max {self.r_max}"] + [
            sep.join(("inf" if r == INF else str(r), str(n), str(s), str(d)))
            for r, n, s, d in self.cells()]


def collapse_page_dense(p, n: int, s: int):
    """``collapse_page`` by walking down from r_max one page at a time."""
    target = p.dim(INF, n, s)
    if p.dim(p.r_max, n, s) != target:
        return None
    r = p.r_max
    while r > 1 and p.dim(r - 1, n, s) == target:
        r -= 1
    return r


def dense_pages_from_barcode(b: Barcode, r_max: int) -> DensePageTable:
    """The closed form page by page: an essential bar (n, s, inf) puts one
    dimension at (n, s) on every page; a finite bar (n, s, m) puts one at
    (n, s) and one at (n+1, s+m) on pages 1..m and nothing afterwards."""
    dims: dict = {}

    def bump(r, n, s, by):
        dims[(r, n, s)] = dims.get((r, n, s), 0) + by

    for entry, mult in b.entries():
        n, s = entry.degree, entry.birth
        if entry.is_essential:
            for r in [*range(1, r_max + 1), INF]:
                bump(r, n, s, mult)
        else:
            m = entry.lifetime
            for r in range(1, min(m, r_max) + 1):
                bump(r, n, s, mult)
                bump(r, n + 1, s + m, mult)
    return DensePageTable(r_max, dims)


def dense_pages_direct(c: FilteredChainComplex, r_max: int) -> DensePageTable:
    """The four-term formula at every page of every cell, each zeta a rank.

        dim E[r,n,s] = zeta(r,n,s) - zeta(r-1,n,s-1)
                       - zeta(r-1,n+1,s+r-1) + zeta(r,n+1,s+r-1)

    with zeta(r, n, s) = #cols(level <= s) - the dense rank of d_n on those
    columns and the rows above level s - r; the limit row is r = span + 1.
    """
    def zeta(r, n, s):
        rows = _dense_boundary(c, n, lambda g: g.filtration <= s)
        block = [row for row, g in zip(rows, c.gens(n - 1)) if g.filtration > s - r]
        return sum(g.filtration <= s for g in c.gens(n)) - dense_rank(block, c.field)

    def value(k, n, s):
        return (zeta(k, n, s) - zeta(k - 1, n, s - 1)
                - zeta(k - 1, n + 1, s + k - 1) + zeta(k, n + 1, s + k - 1))

    dims: dict = {}
    for n, s in {(g.degree, g.filtration) for g in c.all_generators()}:
        for r in range(1, r_max + 1):
            dims[(r, n, s)] = value(r, n, s)
        dims[(INF, n, s)] = value(c.filtration_span + 1, n, s)
    return DensePageTable(r_max, dims)


# -- ingest and validation, one field operation per entry -----------------------

def violations_by_axpy(c: FilteredChainComplex) -> list:
    """What ``c.validate()`` returns, with d∘d summed by one field ``axpy`` per entry.

    Works in the field's own scalars (``Fraction`` over Q), so it shares
    neither the integer sums nor the final reduction mod p with ``validate``.
    """
    out = []
    for n in c.degrees():
        below = c.gens(n - 1)
        for g in c.gens(n):
            for r, _ in c.column(n, g.gid):
                tgt = below[r]
                if tgt.filtration > g.filtration:
                    out.append(Violation(
                        n, g.gid,
                        f"boundary target {tgt.label()} at level {tgt.filtration} "
                        f"exceeds source level {g.filtration}"))
    for n in c.degrees():
        if n - 1 not in c.generators:
            continue
        for g in c.gens(n):
            acc = []
            for r, v in c.column(n, g.gid):
                acc = axpy(c.field, acc, v, c.column(n - 1, r))
            if acc:
                out.append(Violation(n, g.gid, f"d∘d ≠ 0 at generator {g.label()}"))
    return out


def column_by_sum(field: FieldSpec, entries) -> list:
    """The canonical column of arbitrary ``(row, coeff)`` pairs: coefficients
    normalized and summed per row in a dict, rows sorted, zero sums dropped."""
    acc: dict = {}
    for r, v in entries:
        acc[r] = field.add(acc.get(r, field.zero), field.normalize(v))
    return [(r, v) for r, v in sorted(acc.items()) if not field.is_zero(v)]


def simplicial_to_chain_by_entries(fsc: FilteredSimplicialComplex,
                                   field: FieldSpec) -> FilteredChainComplex:
    """The chain complex of ``fsc``: every generator first, then each column
    from its signed faces, sorted by row (the faces are distinct), the sign
    flipped by a field multiplication per face."""
    by_degree: dict = {}
    index: dict = {}
    for verts, value in fsc.simplices:
        n = len(verts) - 1
        name = "s" + "_".join(str(v) for v in verts)
        g = Generator(len(by_degree.setdefault(n, [])), n, fsc.levels.index(value), name)
        by_degree[n].append(g)
        index[verts] = g
    boundary = {n: [[] for _ in gs] for n, gs in by_degree.items()}
    minus_one = field.normalize(-1)
    for verts, _ in fsc.simplices:
        if len(verts) == 1:
            continue
        entries, sign = [], field.one
        for i in range(len(verts)):
            face = verts[:i] + verts[i + 1:]
            if face not in index:
                raise ClosureError(f"missing face {face!r} of {verts!r}")
            entries.append((index[face].gid, sign))
            sign = field.mul(sign, minus_one)
        g = index[verts]
        boundary[g.degree][g.gid] = sorted(entries)
    return FilteredChainComplex(field, by_degree, boundary)


def make_simplicial_by_lookup(simplices) -> FilteredSimplicialComplex:
    """``make_simplicial`` as a closure pass over vertex tuples: every face of
    every simplex is sliced out and looked up, once to check it and once
    more, after sorting, for its position."""
    seen: dict = {}
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
    position = {verts: k for k, (verts, _) in enumerate(ordered)}
    faces = tuple(tuple(position[verts[:i] + verts[i + 1:]] for i in range(len(verts)))
                  if len(verts) > 1 else () for verts, _ in ordered)
    return FilteredSimplicialComplex(ordered, tuple(sorted(set(seen.values()))), faces)


def rips_by_cliques(dist: list, max_dim: int, threshold) -> list:
    """(verts, diameter) of every clique of at most ``max_dim + 1`` vertices
    whose distances are all within ``threshold`` (None: no bound), by brute
    force over vertex subsets."""
    out = []
    for k in range(1, max_dim + 2):
        for verts in combinations(range(len(dist)), k):
            lengths = [dist[u][v] for u, v in combinations(verts, 2)]
            if threshold is None or all(d <= threshold for d in lengths):
                out.append((verts, max(lengths, default=0.0)))
    return out


def serialize_simplicial_by_lookup(fsc: FilteredSimplicialComplex, field: FieldSpec,
                                   comments=()) -> str:
    """The text ``serialize_simplicial`` writes, each face found by slicing
    its vertex tuple and looking it up, ``fsc.faces`` unread."""
    level = {value: k for k, value in enumerate(fsc.levels)}
    signs = (field.format(field.one), field.format(field.normalize(-1)))
    lines = [f"# {comment}" for comment in comments]
    lines.append(f"field {field.token()}")
    bnds, labels, position = [], [], {}
    for k, (verts, value) in enumerate(fsc.simplices):
        label = "s" + "_".join(map(str, verts))
        labels.append(label)
        position[verts] = k
        n = len(verts) - 1
        lines.append(f"gen {label} {n} {level[value]}")
        if n:
            faces = sorted((position[verts[:i] + verts[i + 1:]], i & 1) for i in range(n + 1))
            bnds.append(f"bnd {label} " + " ".join(f"{signs[sign]} {labels[face]}"
                                                   for face, sign in faces))
    return "\n".join(lines + bnds) + "\n"
