import hashlib
import io
import json
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from spectra_persist import complexes, linalg, spectral
from spectra_persist.cli import main
from spectra_persist.complexes import FilteredChainComplex
from spectra_persist.errors import (InconsistentTableError, InsufficientRMaxError,
                                    ParseError, UsageError)
from spectra_persist.fields import PrimeField, RationalField
from spectra_persist.ingest import parse_complex
from spectra_persist.simplicial import PointCloud, rips, simplicial_to_chain
from spectra_persist.linalg import ColumnReducer, rank
from spectra_persist.persistence import INF, Barcode, BarEntry, decompose
from spectra_persist.randomgen import random_complex
from spectra_persist.spectral import (PageTable, _coboundary_pairs, collapse_page,
                                      pages_direct, pages_from_barcode,
                                      parse_page_table, recover_barcode, verify)

from helpers import (corpus_fields, model_essential, model_pair, to_json_obj, traced,
                     triangle)
from oracles import (DensePageTable, collapse_page_dense, dense_pages_direct,
                     dense_pages_from_barcode, pages_direct_spans, persistent_betti,
                     recover_barcode_dense)

Q = RationalField()

MODEL_BAR = Barcode({BarEntry(0, 2, 3): 1})
ESSENTIAL_BAR = Barcode({BarEntry(0, 0, INF): 1})
TRIANGLE_BAR = Barcode({BarEntry(0, 0, INF): 1, BarEntry(0, 0, 1): 2,
                        BarEntry(1, 2, INF): 1})


def model_table(r_max=4):
    dims = {}
    for r in (1, 2, 3):
        dims[(r, 1, 5)] = 1
        dims[(r, 0, 2)] = 1
    return PageTable(r_max, dims)


def test_pages_from_barcode_model():
    assert pages_from_barcode(MODEL_BAR, 4) == model_table()


def test_pages_from_barcode_essential():
    t = pages_from_barcode(ESSENTIAL_BAR, 3)
    for r in (1, 2, 3, INF):
        assert t.dim(r, 0, 0) == 1
    assert t.support() == {(0, 0)}


def test_pages_from_barcode_triangle():
    t = pages_from_barcode(TRIANGLE_BAR, 2)
    assert t.dim(1, 0, 0) == 3 and t.dim(1, 1, 1) == 2 and t.dim(1, 1, 2) == 1
    assert t.dim(2, 0, 0) == 1 and t.dim(2, 1, 2) == 1 and t.dim(2, 1, 1) == 0
    assert t.dim(INF, 0, 0) == 1 and t.dim(INF, 1, 2) == 1


def test_pages_direct_model():
    assert pages_direct(model_pair(Q, 0, 2, 3), 4) == model_table()


def test_pages_direct_empty():
    t = pages_direct(FilteredChainComplex(Q, {}, {}), 3)
    assert not t and t.support() == set()


def test_pages_direct_single_essential():
    t = pages_direct(model_essential(Q, 0, 0), 3)
    for r in (1, 2, 3, INF):
        assert t.dim(r, 0, 0) == 1


def test_page_index_validation():
    t = model_table()
    for r in (True, 1.0, 0, -1, t.r_max + 1, "1", None):
        with pytest.raises(UsageError, match=r"^page index .* outside 1\.\."):
            t.dim(r, 0, 0)
        with pytest.raises(UsageError, match=r"^page index .* outside 1\.\."):
            t.row_total(r, 0)
    assert t.dim(INF, 0, 0) == 0
    assert [t.dim(r, 0, 2) for r in (1, 2, 3, 4, INF)] == [1, 1, 1, 0, 0]
    assert [t.row_total(r, 0) for r in (1, 2, 3, 4, INF)] == [1, 1, 1, 0, 0]


def test_collapse_model():
    assert collapse_page(model_table(), 1, 5) == 4
    assert collapse_page(model_table(), 0, 2) == 4


def test_collapse_essential():
    assert collapse_page(pages_from_barcode(ESSENTIAL_BAR, 3), 0, 0) == 1


def test_collapse_triangle():
    t = pages_from_barcode(TRIANGLE_BAR, 2)
    assert collapse_page(t, 0, 0) == 2
    assert collapse_page(t, 1, 2) == 1


def test_collapse_not_stabilized():
    # table truncated at r_max=2 while the bar is still alive there
    t = pages_from_barcode(MODEL_BAR, 2)
    assert collapse_page(t, 1, 5) is None


def test_recover_model():
    assert recover_barcode(model_table(), 2) == MODEL_BAR


def test_recover_empty():
    assert recover_barcode(PageTable(3, {}), 0) == Barcode()


def test_recover_triangle():
    t = pages_from_barcode(TRIANGLE_BAR, 2)
    assert recover_barcode(t, 0) == TRIANGLE_BAR


def test_recover_insufficient_r_max():
    t = pages_from_barcode(MODEL_BAR, 3)  # bar of lifetime 3 still alive at r=3
    with pytest.raises(InsufficientRMaxError):
        recover_barcode(t, 2)


def test_recover_inconsistent_table():
    # dim grows from page 1 to page 2 while matching the limit at r_max:
    # the recursion hits a negative multiplicity at m=1
    dims = {(2, 0, 0): 1}
    with pytest.raises(InconsistentTableError):
        recover_barcode(PageTable(3, dims), 0)
    # the bar born at (0, 0) must die at (1, 1), the top level, but that cell
    # does not drop: only the nu term at (n=1, s=1, m=1) sees it
    dims = {(1, 0, 0): 1, (1, 1, 1): 1, (2, 1, 1): 1, (INF, 1, 1): 1}
    with pytest.raises(InconsistentTableError,
                       match=r"^negative multiplicity -1 at \(n=1, s=1, m=1\)$"):
        recover_barcode(PageTable(2, dims), 0)


def random_barcode(rng):
    counts = {}
    for _ in range(rng.randint(0, 12)):
        e = BarEntry(rng.randint(-2, 3), rng.randint(-3, 6), rng.choice([1, 2, 3, 5, INF]))
        counts[e] = counts.get(e, 0) + rng.randint(1, 2)
    return Barcode(counts)


def test_round_trip_random_barcodes():
    rng = random.Random(14)
    for _ in range(50):
        b = random_barcode(rng)
        entries = [e for e, _ in b.entries()]
        r_max = max((e.lifetime for e in entries if e.lifetime != INF), default=0) + 1
        table = pages_from_barcode(b, int(r_max))
        s_min = min((e.birth for e in entries), default=0)
        assert recover_barcode(table, s_min) == b


def outcome(recover, table, s_min):
    try:
        return recover(table, s_min)
    except (InconsistentTableError, InsufficientRMaxError, UsageError) as exc:
        return type(exc), str(exc)


def test_recover_matches_dense_recursion():
    # exact tables, tables with cells bumped by +-1 (mostly not page tables of
    # any complex), and tables cut below their longest bar
    rng = random.Random(15)
    seen = set()
    for trial in range(120):
        b = random_barcode(rng)
        longest = max((e.lifetime for e, _ in b.entries() if not e.is_essential), default=0)
        tables = [pages_from_barcode(b, longest + 1 + rng.randint(0, 2))]
        if longest > 1:
            tables.append(pages_from_barcode(b, rng.randint(1, longest - 1)))
        dims = {(r, n, s): d for r, n, s, d in tables[0].cells()}
        for _ in range(rng.randint(1, 3)):
            live = sorted((k for k, d in dims.items() if d), key=repr)
            if live and rng.random() < 0.5:
                dims[rng.choice(live)] -= 1
            else:
                r = rng.choice([*range(1, tables[0].r_max + 1), INF])
                key = (r, rng.randint(-2, 4), rng.randint(-3, 8))
                dims[key] = dims.get(key, 0) + 1
        tables.append(PageTable(tables[0].r_max, dims))
        for table in tables:
            births = [s for _, s in table.support()] or [0]
            s_min = min(births) - rng.choice([0, 0, 0, 1, -1])
            got = outcome(recover_barcode, table, s_min)
            assert got == outcome(recover_barcode_dense, table, s_min), (trial, table.cells())
            seen.add(got[0] if isinstance(got, tuple) else Barcode)
    assert seen == {Barcode, InconsistentTableError, InsufficientRMaxError, UsageError}


def test_monotone_in_r_and_euler_characteristic():
    rng = random.Random(16)
    for trial in range(25):
        field = corpus_fields()[trial % 4]
        c = random_complex(rng, rng.randint(3, 30), field)
        r_max = c.filtration_span + 1
        t = pages_direct(c, r_max)
        for n, s in t.support():
            prev = t.dim(1, n, s)
            for r in range(2, r_max + 1):
                cur = t.dim(r, n, s)
                assert cur <= prev
                prev = cur
            assert t.dim(INF, n, s) <= prev
        degrees = sorted({g.degree for g in c.all_generators()})
        if degrees:
            full = range(degrees[0] - 1, degrees[-1] + 2)
            chi_cells = sum((-1) ** n * c.n_gens(n) for n in full)
            for r in list(range(1, r_max + 1)) + [INF]:
                chi_r = sum((-1) ** n * t.row_total(r, n) for n in full)
                assert chi_r == chi_cells


def test_local_collapse_on_random_complexes():
    rng = random.Random(18)
    for trial in range(20):
        field = corpus_fields()[trial % 4]
        c = random_complex(rng, rng.randint(3, 25), field)
        _, b = decompose(c)
        longest = max((e.lifetime for e, _ in b.entries() if not e.is_essential), default=0)
        r_max = max(longest + 1, c.filtration_span + 1, 1)
        t = pages_direct(c, r_max)
        for n, s in t.support():
            assert collapse_page(t, n, s) is not None


def test_direct_engine_matches_literal_subquotients():
    # the pair-counting engine against spans + subquotient dims, cell by cell
    rng = random.Random(19)
    for trial in range(15):
        field = corpus_fields()[trial % 4]
        c = random_complex(rng, rng.randint(3, 18), field)
        r_max = c.filtration_span + 1
        t = pages_direct(c, r_max)
        literal = pages_direct_spans(c, r_max)
        finite = {(r, n, s): d for (r, n, s), d in
                  ((k, t.dim(*k)) for k in literal)}
        cells = {(g.degree, g.filtration) for g in c.all_generators()}
        for n, s in cells:
            for r in range(1, r_max + 1):
                assert t.dim(r, n, s) == literal.get((r, n, s), 0), (trial, r, n, s)


def assert_limit_row_matches_oracle(seed, r_max_of):
    rng = random.Random(seed)
    for trial in range(15):
        field = corpus_fields()[trial % 4]
        c = random_complex(rng, rng.randint(3, 18), field)
        if not c.degrees():
            continue
        t = pages_direct(c, r_max_of(c))
        top = c.max_level
        for n in c.degrees():
            for s in range(c.min_level, top + 1):
                expected = (persistent_betti(c, n, s, top)
                            - (persistent_betti(c, n, s - 1, top)
                               if s - 1 >= c.min_level else 0))
                assert t.dim(INF, n, s) == expected, (trial, n, s)


def test_infinity_row_matches_image_rank_oracle():
    assert_limit_row_matches_oracle(20, lambda c: c.filtration_span + 1)


def test_limit_row_does_not_depend_on_r_max():
    # at r_max = span + 1 the limit equals the last finite page, so only a
    # shallow table shows whether the limit row is computed on its own
    assert_limit_row_matches_oracle(22, lambda c: 1)


def test_anti_transposed_pairs_match_decompose():
    # the duality the direct engine relies on: reducing the coboundary
    # matrix bottom row first pairs exactly the generators decompose pairs,
    # zero-length pairs included
    rng = random.Random(21)
    for trial in range(100):
        field = corpus_fields()[trial % 4]
        c = random_complex(rng, rng.randint(3, 30), field)
        pairing, _ = decompose(c)
        want = sorted((p.death.degree, p.death.gid, p.birth.gid) for p in pairing.pairs)
        got = sorted((n, col, row) for n, row, col in _coboundary_pairs(c))
        assert got == want, trial


def test_pages_direct_reduces_each_degree_once(monkeypatch):
    c = random_complex(random.Random(23), 60, PrimeField(5))
    built = []
    init = ColumnReducer.__init__

    def counting_init(self, field):
        built.append(field)
        init(self, field)

    monkeypatch.setattr(ColumnReducer, "__init__", counting_init)
    pages_direct(c, c.filtration_span + 1)
    assert 0 < len(built) <= len(c.degrees())


def test_pages_direct_work_is_bounded_by_pairs_not_pages(monkeypatch):
    # the engine hands the builder one change per cell at page 1 and one per
    # page that some pair end leaves a cell at; a per-page loop would hand
    # over cells * (r_max + 1) of them
    rng = random.Random(25)
    pc = PointCloud.from_points([(rng.random(), rng.random()) for _ in range(14)])
    c = simplicial_to_chain(rips(pc, 2, 0.45), PrimeField(2))
    r_max = c.filtration_span + 1
    cells = len({(g.degree, g.filtration) for g in c.all_generators()})
    pairs = len(decompose(c)[0].pairs)
    assert 0 < cells + 2 * pairs < cells * (r_max + 1)
    handed = []
    store = PageTable._store

    def counting_store(self, deltas):
        handed.extend(deltas)
        return store(self, deltas)

    monkeypatch.setattr(PageTable, "_store", counting_store)
    pages_direct(c, r_max)
    assert 0 < len(handed) <= cells + 2 * pairs


def test_pages_direct_truncates_to_smaller_r_max():
    # leave pages past r_max are clipped: a shallow table is the deep one
    # cut at r_max, with the same limit row
    rng = random.Random(27)
    for trial in range(30):
        field = corpus_fields()[trial % 4]
        c = random_complex(rng, rng.randint(3, 30), field)
        deep_r = c.filtration_span + 3
        deep = pages_direct(c, deep_r)
        for r_max in range(1, deep_r):
            cut = {(r, n, s): d for r, n, s, d in deep.cells() if r == INF or r <= r_max}
            assert pages_direct(c, r_max) == PageTable(r_max, cut), (trial, r_max)


def assert_runs_are_canonical(t: PageTable):
    # pages rise within 1..r_max and inf, each run changes the dimension (so
    # no cell is all zero), and the limit has a run only where it differs
    # from page r_max
    for n, s in t.support():
        steps = t.steps(n, s)
        pages = [r for r, _ in steps]
        assert steps and pages == sorted(set(pages)), steps
        assert all(r == INF or 1 <= r <= t.r_max for r in pages), steps
        assert all(d != prev for (_, d), (_, prev) in zip(steps, [(0, 0), *steps])), steps


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32), size=st.integers(0, 14),
       field=st.sampled_from(corpus_fields()))
def test_both_engines_give_the_dense_tables_at_every_depth(seed, size, field):
    # each engine emits page changes, a leave page past r_max landing at the
    # limit; at every r_max up to span + 1 both tables read as the dense
    # four-term formula, cell by cell and row total by row total
    c = random_complex(random.Random(seed), size, field)
    _, b = decompose(c)
    span = c.filtration_span
    full = dense_pages_direct(c, span + 1)
    degrees = {n for n, _ in full.support()} | {n + 1 for n, _ in full.support()}
    for r_max in range(1, span + 2):
        dense = DensePageTable(r_max, {(r, n, s): d for r, n, s, d in full.cells()
                                       if r == INF or r <= r_max})
        pages = [*range(1, r_max + 1), INF]
        for t in (pages_direct(c, r_max), pages_from_barcode(b, r_max)):
            assert t.cells() == dense.cells(), r_max
            for n in degrees:
                assert ([t.row_total(r, n) for r in pages]
                        == [dense.row_total(r, n) for r in pages]), (r_max, n)
            assert_runs_are_canonical(t)


def watch_reducers(monkeypatch) -> tuple[list, list]:
    """Wrap every reducer class: ``built`` gets (class, the function that
    built it) per reducer, ``handed`` the length of each column ``reduce`` gets."""
    from spectra_persist.linalg import BitReducer
    from spectra_persist.signs import SignReducer

    built, handed = [], []
    for cls in (ColumnReducer, BitReducer, SignReducer):
        def init(self, *args, _cls=cls, _init=cls.__init__):
            if type(self) is _cls:  # a SignReducer once, not again as a ColumnReducer
                built.append((_cls, sys._getframe(1).f_code.co_name))
            _init(self, *args)

        def reduce(self, col, _reduce=cls.reduce):
            handed.append(len(col))
            return _reduce(self, col)
        monkeypatch.setattr(cls, "__init__", init)
        monkeypatch.setattr(cls, "reduce", reduce)
    return built, handed


@pytest.mark.parametrize("field, kernel", [(PrimeField(2), "BitReducer"),
                                           (PrimeField(5), "ColumnReducer"),
                                           (Q, "SignReducer")], ids=["gf2", "gf5", "q"])
def test_only_decompose_builds_a_field_kernel(monkeypatch, field, kernel):
    # the direct engine and the homology ranks reduce with the plain list
    # reducer, so over GF(2) and Q they check decompose with code it does not run
    rng = random.Random(39)
    pc = PointCloud.from_points([(rng.random(), rng.random()) for _ in range(12)])
    inputs = [simplicial_to_chain(rips(pc, 2, 0.5), field),
              *(random_complex(rng, rng.randint(5, 40), field) for _ in range(10))]
    built, _ = watch_reducers(monkeypatch)
    for c in inputs:
        assert verify(c, c.filtration_span + 1).all_passed
    assert {cls.__name__ for cls, caller in built if caller == "decompose"} == {kernel}
    assert {(cls, caller) for cls, caller in built if caller != "decompose"} == {
        (ColumnReducer, "_coboundary_pairs"), (ColumnReducer, "homology_dims_by_level"),
        (ColumnReducer, "rank")}


def test_no_reducer_is_handed_an_empty_column(monkeypatch):
    # an empty column cannot pivot, so no step of verify reduces one, and the
    # direct engine builds a reducer only for a degree with a boundary entry
    rng = random.Random(43)
    corpus = [random_complex(rng, rng.randint(5, 50), corpus_fields()[k % 4])
              for k in range(40)]
    built, handed = watch_reducers(monkeypatch)
    for c in corpus:
        built.clear()
        assert verify(c, c.filtration_span + 1).all_passed
        coboundary = [caller for _, caller in built].count("_coboundary_pairs")
        assert coboundary == sum(1 for cols in c.boundary.values() if any(cols))
    assert handed and 0 not in handed


def test_verify_ranks_each_boundary_matrix_once(monkeypatch):
    c = random_complex(random.Random(29), 60, PrimeField(5))
    ranked = []

    def counting_rank(m, field):
        ranked.append(m)  # kept alive, so the column ids below stay unique
        return rank(m, field)

    monkeypatch.setattr(complexes, "rank", counting_rank)
    assert verify(c, c.filtration_span + 1).all_passed
    keys = [tuple(map(id, m.columns)) for m in ranked]
    for n in c.degrees():
        assert keys.count(tuple(map(id, c.boundary[n]))) == 1, n


def test_verify_stores_each_table_once(monkeypatch):
    # one build per engine, the barcode engine's and the direct engine's, both
    # at one depth, deep enough to recover from even when r_max is 1; the
    # recovered barcode is decompose's, so the round trip reads the barcode
    # engine's table and builds none of its own
    c = random_complex(random.Random(31), 40, PrimeField(5))
    store = PageTable._store
    stored = []
    direct = []
    from_bars = []

    def counting_store(self, deltas):
        stored.append(len(deltas))
        return store(self, deltas)

    def counting_direct(c, r_max):
        direct.append(r_max)
        return pages_direct(c, r_max)

    def counting_from_barcode(b, r_max):
        from_bars.append(r_max)
        return pages_from_barcode(b, r_max)

    monkeypatch.setattr(PageTable, "_store", counting_store)
    monkeypatch.setattr(spectral, "pages_direct", counting_direct)
    monkeypatch.setattr(spectral, "pages_from_barcode", counting_from_barcode)
    for r_max in (c.filtration_span + 1, 1):
        stored.clear()
        direct.clear()
        from_bars.clear()
        assert verify(c, r_max).all_passed
        assert len(stored) == 2 and all(stored), (r_max, stored)
        assert direct == from_bars == [c.filtration_span + 1], r_max


def test_verify_builds_no_second_complex(monkeypatch):
    # once c is valid, page one reads Gr C off c's own columns: no complex is
    # built, through the constructor or _adopt, and d∘d is never summed again
    c = random_complex(random.Random(37), 40, Q)
    c.ensure_valid()
    calls = Counter()
    init, adopt = FilteredChainComplex.__init__, FilteredChainComplex._adopt.__func__

    def counting_init(self, *args):
        calls["init"] += 1
        init(self, *args)

    def counting_adopt(cls, *args):
        calls["adopt"] += 1
        return adopt(cls, *args)

    def no_composites(*args):
        calls["nonzero_composites"] += 1
        return []

    monkeypatch.setattr(FilteredChainComplex, "__init__", counting_init)
    monkeypatch.setattr(FilteredChainComplex, "_adopt", classmethod(counting_adopt))
    monkeypatch.setattr(complexes, "nonzero_composites", no_composites)
    monkeypatch.setattr(linalg, "nonzero_composites", no_composites)
    for r_max in (1, c.filtration_span + 1):
        assert verify(c, r_max).all_passed
    assert not calls
    FilteredChainComplex(Q, {}, {}).validate()  # the counters do count
    assert calls == {"init": 1}


def test_verify_fails_a_wrong_graded_homology_at_its_first_mismatch(monkeypatch):
    # triangle's Gr C has homology 3 at (0, 0), 2 at (1, 1) and 1 at (1, 2);
    # one cell shifted by one must fail page one, and only page one
    graded = complexes.homology_dims_by_level

    def shifted(c):
        dims = graded(c)
        dims[(1, 2)] += 1
        return dims

    monkeypatch.setattr(spectral, "homology_dims_by_level", shifted)
    report = verify(triangle(), 2)
    assert [ch for ch in report.checks if not ch.passed] == [spectral.CheckResult(
        "page-one-is-graded-homology", False, "first mismatch (n,s,page,graded)=(1, 2, 1, 2)")]
    assert report.lines()[1] == ("[FAIL] page-one-is-graded-homology "
                                 "(first mismatch (n,s,page,graded)=(1, 2, 1, 2))")


@pytest.mark.parametrize("r_max", [0, -1, True, 1.5])
def test_every_engine_table_checks_its_depth(r_max):
    c = model_pair(Q, 0, 2, 3)
    for build in (lambda: pages_direct(c, r_max), lambda: pages_from_barcode(MODEL_BAR, r_max),
                  lambda: verify(c, r_max)):
        with pytest.raises(UsageError, match=r"^r_max must be a positive integer, got "):
            build()


def test_verify_model_and_triangle_pass():
    for c in (model_pair(Q, 0, 2, 3), triangle()):
        report = verify(c, 4)
        assert report.all_passed
        assert len(report.checks) == 5


@pytest.mark.parametrize("fake, failures", [
    # the bar never dies: the row totals stay flat where the bars drop
    (Barcode({BarEntry(0, 2, INF): 1, BarEntry(1, 5, INF): 1}),
     ["pages-equal (4 differing cells, first (4, 0, 2, 0, 1))",
      "limit-row-is-total-homology (first mismatch (n,limit,homology)=(0, 1, 0))",
      "totalized-dimension-identity (first mismatch (r,n,pages,bars)=(4, 0, 1, 0))"]),
    (Barcode({BarEntry(0, 2, 1): 1}),
     ["pages-equal (6 differing cells, first (1, 1, 3, 0, 1))",
      "page-one-is-graded-homology (first mismatch (n,s,page,graded)=(1, 3, 1, 0))",
      "totalized-dimension-identity (first mismatch (r,n,pages,bars)=(2, 0, 0, 1))"]),
    (Barcode({BarEntry(0, 2, 3): 2}),
     ["pages-equal (6 differing cells, first (1, 0, 2, 1, 2))",
      "page-one-is-graded-homology (first mismatch (n,s,page,graded)=(0, 2, 2, 1))",
      "totalized-dimension-identity (first mismatch (r,n,pages,bars)=(1, 0, 2, 1))"]),
])
def test_verify_names_the_first_mismatch_of_a_wrong_table(monkeypatch, fake, failures):
    # the direct engine swapped for the pages of a wrong barcode: each check
    # reports its count and first mismatch as the per-page checks did
    monkeypatch.setattr(spectral, "pages_direct", lambda c, r_max: pages_from_barcode(fake, r_max))
    lines = verify(model_pair(Q, 0, 2, 3), 4).lines()
    assert [line[len("[FAIL] "):] for line in lines if line.startswith("[FAIL]")] == [
        *failures, "barcode-round-trip (recovered barcode differs)"]


@pytest.mark.parametrize("last_page, at, failures", [
    # the model's table less its death cell (1, 5): the recursion reads birth
    # cells, so it recovers decompose's barcode, and only the round trip, on
    # the barcode engine's own table, sees the cell missing
    (3, "(n=1, s=5)",
     ["pages-equal (3 differing cells, first (1, 1, 5, 1, 0))",
      "totalized-dimension-identity (first mismatch (r,n,pages,bars)=(1, 1, 0, 1))"]),
    # and its birth cell cut a page short too: the recovered bar (0, 2, 2)
    # differs from decompose's, so the round trip reads that bar's own pages
    (2, "(n=1, s=4)",
     ["pages-equal (4 differing cells, first (1, 1, 5, 1, 0))",
      "totalized-dimension-identity (first mismatch (r,n,pages,bars)=(3, 0, 0, 1))"]),
])
def test_verify_round_trip_names_the_first_cell_the_bars_do_not_give(
        monkeypatch, last_page, at, failures):
    fake = PageTable(4, {(r, 0, 2): 1 for r in range(1, last_page + 1)})
    monkeypatch.setattr(spectral, "pages_direct", lambda c, r_max: fake)
    assert verify(model_pair(Q, 0, 2, 3), 4).lines() == [
        f"[FAIL] {failures[0]}",
        "[FAIL] page-one-is-graded-homology (first mismatch (n,s,page,graded)=(1, 5, 0, 1))",
        "[PASS] limit-row-is-total-homology",
        f"[FAIL] {failures[1]}",
        "[FAIL] barcode-round-trip (no complex has this table: "
        f"its bars give other pages at {at})",
        "1/5 checks passed"]


@pytest.mark.parametrize("span", [10, 10**12])
def test_pages_equal_counts_a_mismatch_without_expanding_it(monkeypatch, span):
    # the wrong bar (0, 2, span) against the model's (0, 2, 3): the cells
    # (0, 2), (1, 5) and (1, span + 2) differ on 2 * span pages in all,
    # counted off three stretches whatever the span
    fake = pages_from_barcode(Barcode({BarEntry(0, 2, span): 1}), span + 1)
    monkeypatch.setattr(spectral, "pages_direct", lambda c, r_max: fake)
    c = model_pair(Q, 0, 2, 3)
    start = time.perf_counter()
    report, _, peak = traced(lambda: verify(c, span + 1))
    assert time.perf_counter() - start < 1.0
    assert peak < 2_000_000
    assert report.checks[0] == spectral.CheckResult(
        "pages-equal", False, f"{2 * span} differing cells, first (1, 1, 5, 1, 0)")
    if span == 10:  # the count and the first cell are diff's, one per page
        cells = pages_from_barcode(MODEL_BAR, span + 1).diff(fake)
        assert len(cells) == 2 * span and cells[0] == (1, 1, 5, 1, 0)


def test_verify_empty_passes_vacuously():
    report = verify(FilteredChainComplex(PrimeField(2), {}, {}), 2)
    assert report.all_passed


def test_page_table_serialization_round_trip():
    for table in (model_table(), pages_from_barcode(TRIANGLE_BAR, 2), PageTable(3, {})):
        text = "\n".join(table.to_lines())
        assert parse_page_table(text) == table
        assert PageTable.from_json_obj(to_json_obj(table)) == table


def test_page_table_parse_errors():
    with pytest.raises(ParseError):
        parse_page_table("1 2 3")
    with pytest.raises(ParseError):
        parse_page_table("one 2 3 4")


@pytest.mark.parametrize("first, second", [(1, 2), (2, 1)])
@pytest.mark.parametrize("r", [1, "inf"])
def test_a_repeated_page_cell_is_a_parse_error(first, second, r):
    # whichever value comes last, the table is refused, in either format
    text = f"# r_max 3\n{r} 0 0 {first}\n2 1 0 1\n{r} 0 0 {second}\n"
    with pytest.raises(ParseError) as err:
        parse_page_table(text)
    assert str(err.value) == f"line 4: repeated page cell (r={r}, n=0, s=0)"
    obj = {"r_max": 3, "dims": [{"r": r, "n": 0, "s": 0, "dim": first},
                                {"r": 2, "n": 1, "s": 0, "dim": 1},
                                {"r": r, "n": 0, "s": 0, "dim": second}]}
    with pytest.raises(ParseError) as err:
        PageTable.from_json_obj(obj)
    assert str(err.value) == f"bad page table JSON: repeated page cell (r={r}, n=0, s=0)"


@pytest.mark.parametrize("first, second", [(5, 1), (1, 5)])
def test_a_second_r_max_comment_is_a_parse_error(first, second):
    with pytest.raises(ParseError) as err:
        parse_page_table(f"# r_max {first}\n1 0 0 1\n# r_max {second}\n")
    assert str(err.value) == "line 3: second r_max comment"


@st.composite
def page_tables(draw):
    r_max = draw(st.integers(1, 6))
    keys = st.tuples(st.sampled_from([*range(1, r_max + 1), INF]),
                     st.integers(-3, 3), st.integers(-5, 5))
    return PageTable(r_max, draw(st.dictionaries(keys, st.integers(0, 3), max_size=12)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(table=page_tables())
def test_page_table_text_and_json_round_trips(table):
    assert parse_page_table("\n".join(table.to_lines())) == table
    assert parse_page_table("\n".join(table.to_lines("\t"))) == table
    text = json.dumps(to_json_obj(table), indent=2)
    assert PageTable.from_json_obj(json.loads(text)) == table
    # the one reader reads the JSON text to the table from_json_obj makes
    assert parse_page_table(text) == table
    assert parse_page_table("\n " + text) == table


@pytest.mark.parametrize("text, message", [
    ('{"r_max": 1, "dims": [\n', "bad page table JSON: Expecting value: line 2 column 1 (char 23)"),
    ('{"r_max": 1, "r_max": 2, "dims": []}', "bad page table JSON: repeated key 'r_max'"),
    ('{"r_max": ' + "1" * 5000 + ', "dims": []}',
     "bad page table JSON: an integer has too many digits"),
    ('{"r_max": 1, "dims": ' + "[" * 10_000 + "]" * 10_000 + "}",
     "page table JSON is nested too deeply"),
], ids=["bad-json", "repeated-key", "digits", "nesting"])
def test_parse_page_table_refuses_json_faults_as_recover_does(capsys, tmp_path, text, message):
    # a library caller gets the refusal recover prints; a repeated r_max is
    # not read as its last value
    with pytest.raises(ParseError) as err:
        parse_page_table(text)
    assert str(err.value) == message
    path = tmp_path / "table.json"
    path.write_text(text)
    assert main(["recover", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@st.composite
def near_page_tables(draw):
    """Page tables of small barcodes, some with a cell or two moved by one."""
    bars = st.tuples(st.integers(0, 2), st.integers(0, 3), st.sampled_from([1, 2, 3, INF]))
    b = Barcode(Counter(BarEntry(*e) for e in draw(st.lists(bars, max_size=4))))
    r_max = draw(st.integers(2, 5))
    dims = {(r, n, s): d for r, n, s, d in pages_from_barcode(b, r_max).cells()}
    keys = st.tuples(st.sampled_from([*range(1, r_max + 1), INF]),
                     st.integers(0, 3), st.integers(0, 6))
    for key in draw(st.lists(keys, max_size=2)):
        dims[key] = max(0, dims.get(key, 0) + draw(st.sampled_from([-1, 1])))
    return PageTable(r_max, dims)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(table=near_page_tables())
def test_recover_either_refuses_a_table_or_gives_it_back(table):
    try:
        b = recover_barcode(table, 0)
    except (InconsistentTableError, InsufficientRMaxError):
        return
    assert pages_from_barcode(b, table.r_max) == table


def test_an_inconsistent_table_over_a_large_span_fails_fast():
    # the bar (0, 0, 10**12) read off the cell (0, 0) would also fill the
    # cell (1, 10**12), which the table leaves empty; the check compares runs
    span = 10**12
    table = PageTable(span + 1)._store({(0, 0, 1): 1, (0, 0, span + 1): -1})

    def fails():
        with pytest.raises(InconsistentTableError) as err:
            recover_barcode(table, 0)
        return err
    start = time.perf_counter()
    err, _, peak = traced(fails)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == f"no complex has this table: its bars give other pages at (n=1, s={span})"
    assert peak < 2_000_000


def test_page_table_rejects_non_integer_cells():
    with pytest.raises(UsageError, match=r"not indexed by integers"):
        PageTable(3, {(1, 0.5, 0): 1})
    with pytest.raises(UsageError, match=r"not indexed by integers"):
        PageTable(3, {(2, "x", 0): 1})
    with pytest.raises(UsageError, match=r"not indexed by integers"):
        PageTable(3, {(2, 0, True): 1})
    for d in (1.5, True, "1", None):
        with pytest.raises(UsageError, match=r"^dimension .* is not an integer$"):
            PageTable(3, {(1, 0, 0): d})
    with pytest.raises(UsageError, match=r"^negative dimension at \(r=2, n=0, s=0\)$"):
        PageTable(3, {(2, 0, 0): -1})
    # the first bad cell, in the table's order of cells and pages, is the one named
    with pytest.raises(UsageError, match=r"^negative dimension at \(r=1, n=0, s=0\)$"):
        PageTable(3, {(2, 0, 0): 1.5, (1, 0, 0): -1, (1, 0, 1): 1.5})
    with pytest.raises(UsageError, match=r"^dimension 1.5 at \(r=1, n=0, s=1\) is not"):
        PageTable(3, {(1, 0, 1): 1.5, (1, 0, 0): -1})
    with pytest.raises(UsageError):
        PageTable(3, {(True, 0, 0): 1})
    with pytest.raises(UsageError):
        PageTable(True, {})


@st.composite
def table_pairs(draw):
    """A run table and its dense oracle: from a barcode, a complex or a mapping."""
    kind = draw(st.sampled_from(["barcode", "complex", "dense"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "barcode":
        b = random_barcode(rng)
        r_max = draw(st.integers(1, 7))
        return pages_from_barcode(b, r_max), dense_pages_from_barcode(b, r_max)
    if kind == "complex":
        field = draw(st.sampled_from([PrimeField(2), PrimeField(5), Q]))
        c = random_complex(rng, draw(st.integers(0, 24)), field)
        r_max = draw(st.integers(1, c.filtration_span + 3))
        return pages_direct(c, r_max), dense_pages_direct(c, r_max)
    r_max = draw(st.integers(1, 6))
    keys = st.tuples(st.sampled_from([*range(1, r_max + 1), INF]),
                     st.integers(-2, 2), st.integers(-3, 3))
    dims = draw(st.dictionaries(keys, st.integers(0, 3), max_size=14))
    return PageTable(r_max, dims), DensePageTable(r_max, dims)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(pair=table_pairs(), data=st.data())
def test_run_table_reads_like_the_dense_oracle(pair, data):
    runs, dense = pair
    r_max = dense.r_max
    pages = [*range(1, r_max + 1), INF]
    cells = dense.support() | {(0, 0), (1, -1)}
    assert runs.support() == dense.support()
    assert bool(runs) == bool(dense.cells())
    for n, s in cells:
        assert [runs.dim(r, n, s) for r in pages] == [dense.dim(r, n, s) for r in pages]
        assert collapse_page(runs, n, s) == collapse_page_dense(dense, n, s)
    for n in {n for n, _ in cells} | {n + 1 for n, _ in cells}:
        assert ([runs.row_total(r, n) for r in pages]
                == [dense.row_total(r, n) for r in pages])
    assert runs.cells() == dense.cells()
    assert list(runs.to_lines("\t")) == dense.to_lines("\t")
    assert to_json_obj(runs)["dims"] == [
        {"r": "inf" if r == INF else r, "n": n, "s": s, "dim": d}
        for r, n, s, d in dense.cells()]
    # a nearby table: a few cells bumped, r_max moved by at most one
    other_r = max(1, r_max + data.draw(st.integers(-1, 1)))
    dims = {(r, n, s): d for r, n, s, d in dense.cells() if r == INF or r <= other_r}
    for _ in range(data.draw(st.integers(0, 3))):
        key = (data.draw(st.sampled_from([*range(1, other_r + 1), INF])),
               *data.draw(st.sampled_from(sorted(cells))))
        dims[key] = max(0, dims.get(key, 0) + data.draw(st.sampled_from([-1, 1])))
    other, other_dense = PageTable(other_r, dims), DensePageTable(other_r, dims)
    assert runs.diff(other) == dense.diff(other_dense)
    assert other.diff(runs) == other_dense.diff(dense)
    assert (runs == other) == (r_max == other_r and not dense.diff(other_dense))


def test_page_table_runs_are_canonical():
    # a run starts only where the dimension changes, and pages rise
    rng = random.Random(31)
    for trial in range(30):
        c = random_complex(rng, rng.randint(3, 30), corpus_fields()[trial % 4])
        assert_runs_are_canonical(pages_direct(c, c.filtration_span + 2))


def two_bars(span):
    return parse_complex(f"gen a 0 0\ngen b 0 {span}\n", PrimeField(2))


def test_verify_is_independent_of_the_filtration_span():
    c = two_bars(10**12)
    r_max = c.filtration_span + 1
    _, b = decompose(c)
    for t in (pages_direct(c, r_max), pages_from_barcode(b, r_max)):
        assert t.steps(0, 0) == [(1, 1)] and t.steps(0, 10**12) == [(1, 1)]
        assert t.row_total(10**9, 0) == 2 and t.dim(INF, 0, 10**12) == 1
        assert collapse_page(t, 0, 0) == 1
    report, _, peak = traced(lambda: verify(c, r_max))
    assert report.all_passed, report.lines()
    assert peak < 2_000_000


def test_a_pair_across_a_large_span_leaves_both_cells_at_once():
    # the pair (0, 10**12) of d_1 leaves (0, 0) and (1, 10**12) from page
    # 10**12 + 1 on, in two runs per cell and bounded memory
    span = 10**12
    c = parse_complex(f"gen a 0 0\ngen e 1 {span}\nbnd e 1 a\n", PrimeField(2))
    r_max = c.filtration_span + 1
    (t, report), _, peak = traced(lambda: (pages_direct(c, r_max), verify(c, r_max)))
    assert t.steps(0, 0) == t.steps(1, span) == [(1, 1), (span + 1, 0)]
    assert t.support() == {(0, 0), (1, span)}
    assert report.all_passed and len(report.checks) == 5, report.lines()
    assert peak < 2_000_000


class LineCounter(io.TextIOBase):
    """A stdout that counts the lines written to it and keeps only a short tail."""

    def __init__(self):
        self.lines, self.tail = 0, ""

    def write(self, text):
        self.lines += text.count("\n")
        self.tail = (self.tail + text)[-100:]
        return len(text)


def test_pages_streams_its_lines(monkeypatch, tmp_path):
    # both tables of a 10**6 span hold 2 runs where cells() would list
    # 2 * (10**6 + 2); the CLI writes the lines as it makes them, so its
    # traced peak stays flat (5 * 10**4 here, to keep the traced run short)
    span = 10**6
    c = two_bars(span)
    for t in (pages_direct(c, span + 1), pages_from_barcode(decompose(c)[1], span + 1)):
        assert sum(len(t.steps(n, s)) for n, s in t.support()) == 2
    span = 5 * 10**4
    path = tmp_path / "span.fcc"
    path.write_text(f"gen a 0 0\ngen b 0 {span}\n")
    sink = LineCounter()
    monkeypatch.setattr("sys.stdout", sink)
    code, _, peak = traced(lambda: main(["pages", str(path), "--engine", "both"]))
    assert code == 0 and sink.tail.endswith(f"\ninf 0 {span} 1\nDIFF: none\n")
    assert sink.lines == 2 * (1 + 2 * (span + 1) + 2) + 3
    assert peak < 2_000_000


class HashSink(io.TextIOBase):
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)


def test_pages_json_is_written_as_it_is_encoded(monkeypatch, tmp_path):
    # the same bytes as json.dumps of the whole envelope, which for this
    # 5 * 10**4 span held 2 * (5 * 10**4 + 2) cell dicts per table; the
    # traced peak is taken for one engine, as tracing makes the run 10x slower
    span = 5 * 10**4
    path = tmp_path / "span.fcc"
    path.write_text(f"gen a 0 0\ngen b 0 {span}\n")
    c = two_bars(span)
    tables = {"barcode_engine": pages_from_barcode(decompose(c)[1], span + 1),
              "direct_engine": pages_direct(c, span + 1)}
    envelopes = {
        "barcode": {"format": "spectra-persist/1", "kind": "pages",
                    **to_json_obj(tables["barcode_engine"])},
        "both": {"format": "spectra-persist/1", "kind": "pages-both",
                 **{key: to_json_obj(t) for key, t in tables.items()}, "diff": []}}
    expected = {engine: hashlib.sha256((json.dumps(obj, indent=2) + "\n").encode()).hexdigest()
                for engine, obj in envelopes.items()}
    del envelopes, tables
    for engine, trace in (("both", False), ("barcode", True)):
        sink = HashSink()
        monkeypatch.setattr("sys.stdout", sink)

        def pages(engine=engine):
            return main(["pages", str(path), "--engine", engine, "--format", "json"])
        code, _, peak = traced(pages) if trace else (pages(), 0, 0)
        assert code == 0 and sink.sha.hexdigest() == expected[engine]
    assert peak < 2_000_000
