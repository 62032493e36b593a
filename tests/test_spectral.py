import random

import pytest

from spectra_persist import complexes
from spectra_persist.complexes import FilteredChainComplex
from spectra_persist.errors import (InconsistentTableError, InsufficientRMaxError,
                                    ParseError, UsageError)
from spectra_persist.fields import PrimeField, RationalField
from spectra_persist.linalg import ColumnReducer, rank
from spectra_persist.persistence import INF, Barcode, BarEntry, decompose
from spectra_persist.randomgen import corpus_fields, random_complex
from spectra_persist.spectral import (PageTable, _KernelDims, collapse_page,
                                      pages_direct, pages_from_barcode,
                                      parse_page_table, recover_barcode, verify)

from helpers import model_essential, model_pair, triangle
from oracles import pages_direct_spans, persistent_betti

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
    t = pages_direct(FilteredChainComplex.empty(Q), 3)
    assert not t and t.support() == set()


def test_pages_direct_single_essential():
    t = pages_direct(model_essential(Q, 0, 0), 3)
    for r in (1, 2, 3, INF):
        assert t.dim(r, 0, 0) == 1


def test_page_index_validation():
    t = model_table()
    with pytest.raises(UsageError):
        t.dim(0, 0, 0)
    with pytest.raises(UsageError):
        t.dim(5, 0, 0)
    assert t.dim(INF, 0, 0) == 0


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


def test_round_trip_random_barcodes():
    rng = random.Random(14)
    for _ in range(50):
        counts = {}
        for _ in range(rng.randint(0, 12)):
            n = rng.randint(-2, 3)
            s = rng.randint(-3, 6)
            m = rng.choice([1, 2, 3, 5, INF])
            e = BarEntry(n, s, m)
            counts[e] = counts.get(e, 0) + rng.randint(1, 2)
        b = Barcode(counts)
        r_max = max((e.lifetime for e in counts if e.lifetime != INF), default=0) + 1
        table = pages_from_barcode(b, int(r_max))
        s_min = min((e.birth for e in counts), default=0)
        assert recover_barcode(table, s_min) == b


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
    # the rank-identity engine against spans + subquotient dims, cell by cell
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


def by_level(gens):
    return sorted(range(len(gens)), key=lambda i: (gens[i].filtration, i))


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
        got = []
        for n, deg in _KernelDims(c).deg.items():
            cols, rows = by_level(c.gens(n)), by_level(c.gens(n - 1))
            got += [(n, cols[j], rows[p]) for j, p in enumerate(deg.low) if p >= 0]
        assert sorted(got) == want, trial


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


def test_verify_model_and_triangle_pass():
    for c in (model_pair(Q, 0, 2, 3), triangle()):
        report = verify(c, 4)
        assert report.all_passed
        assert len(report.checks) == 5


def test_verify_empty_passes_vacuously():
    report = verify(FilteredChainComplex.empty(PrimeField(2)), 2)
    assert report.all_passed


def test_page_table_serialization_round_trip():
    for table in (model_table(), pages_from_barcode(TRIANGLE_BAR, 2), PageTable(3, {})):
        text = "\n".join(table.to_lines())
        assert parse_page_table(text) == table
        assert PageTable.from_json_obj(table.to_json_obj()) == table


def test_page_table_parse_errors():
    with pytest.raises(ParseError):
        parse_page_table("1 2 3")
    with pytest.raises(ParseError):
        parse_page_table("one 2 3 4")
