import random
import time
from collections import Counter
from copy import copy
from fractions import Fraction
from itertools import pairwise

import pytest
from hypothesis import given, settings, strategies as st

from spectra_persist.complexes import FilteredChainComplex
from spectra_persist.errors import InvalidComplexError, UsageError
from spectra_persist.fields import PrimeField, RationalField
from spectra_persist.ingest import parse_complex, serialize_complex
from spectra_persist.simplicial import PointCloud, rips, serialize_simplicial, simplicial_to_chain
from spectra_persist.linalg import BitReducer, ColumnReducer, kernel, rank
from spectra_persist.persistence import (INF, Barcode, BarEntry, betti,
                                         decompose, multiplicity)
from spectra_persist.randomgen import permute_generators, random_complex
from spectra_persist.signs import SignReducer
from spectra_persist.spectral import _coboundary_pairs, pages_direct, verify

from helpers import (corpus_fields, essential_count, model_essential, model_pair, triangle,
                     whole_basis)
from oracles import barcode_by_rank, dense_rank, pairs_by_rank, persistent_betti

Q = RationalField()
GF2 = PrimeField(2)

TRIANGLE_BARCODE = Barcode({
    BarEntry(0, 0, INF): 1,
    BarEntry(0, 0, 1): 2,
    BarEntry(1, 2, INF): 1,
})


def test_model_pair_barcode():
    _, b = decompose(model_pair(Q, 0, 2, 3))
    assert b == Barcode({BarEntry(0, 2, 3): 1})


def test_single_generator_barcode():
    _, b = decompose(model_essential(Q, 0, 0))
    assert b == Barcode({BarEntry(0, 0, INF): 1})


def test_triangle_barcode_matches_rank_oracle():
    c = triangle()
    _, b = decompose(c)
    assert b == TRIANGLE_BARCODE
    assert barcode_by_rank(c) == TRIANGLE_BARCODE


def test_equal_level_pair_cancelled_but_recorded():
    c = model_pair(Q, 0, 2, 0)
    pairing, b = decompose(c)
    assert not b
    assert len(pairing.pairs) == 1
    assert pairing.pairs[0].cancelled
    assert pairing.essentials == []


def test_decompose_rejects_invalid():
    broken = FilteredChainComplex.from_named(
        Q, [("a", 1, 0), ("b", 0, 1)], {"a": [(1, "b")]})
    with pytest.raises(InvalidComplexError):
        decompose(broken)


def test_betti_triangle():
    assert betti(TRIANGLE_BARCODE, 0, 0, 0) == 3
    assert betti(TRIANGLE_BARCODE, 0, 0, 1) == 1
    assert betti(TRIANGLE_BARCODE, 1, 2, 2) == 1
    assert betti(TRIANGLE_BARCODE, 1, 1, 2) == 0


def test_betti_empty():
    assert betti(Barcode(), 0, -5, 9) == 0


def test_betti_bad_interval():
    with pytest.raises(UsageError):
        betti(TRIANGLE_BARCODE, 0, 3, 1)


def test_multiplicity_model_pair():
    b = Barcode({BarEntry(0, 2, 3): 1})
    assert multiplicity(b, 0, 2, 5) == 1
    assert multiplicity(b, 0, 2, 4) == 0


def test_multiplicity_essential():
    b = Barcode({BarEntry(1, 2, INF): 1})
    assert multiplicity(b, 1, 2, INF) == 1
    assert multiplicity(b, 1, 3, INF) == 0


def test_multiplicity_bad_interval():
    with pytest.raises(UsageError):
        multiplicity(Barcode(), 0, 2, 2)


def test_barcode_entry_validation():
    with pytest.raises(UsageError):
        BarEntry(0, 0, 0)
    with pytest.raises(UsageError):
        BarEntry(0, 0, -2)


def test_permutation_invariance():
    rng = random.Random(4)
    for trial in range(30):
        field = corpus_fields()[trial % 4]
        c = random_complex(rng, rng.randint(3, 35), field)
        _, base = decompose(c)
        for _ in range(3):
            _, again = decompose(permute_generators(rng, c))
            assert again == base


def test_essential_count_matches_homology():
    rng = random.Random(6)
    for trial in range(30):
        field = corpus_fields()[trial % 4]
        c = random_complex(rng, rng.randint(3, 35), field)
        _, b = decompose(c)
        for n in range(-2, 5):
            assert essential_count(b, n) == c.homology_dim(n)


def test_pairing_roles_disjoint_and_lifetimes():
    rng = random.Random(8)
    for _ in range(20):
        c = random_complex(rng, rng.randint(3, 30), Q)
        pairing, _ = decompose(c)
        seen = set()
        for g in pairing.essentials:
            key = (g.degree, g.gid)
            assert key not in seen
            seen.add(key)
        for p in pairing.pairs:
            for g in (p.death, p.birth):
                key = (g.degree, g.gid)
                assert key not in seen
                seen.add(key)
            assert p.lifetime == p.death.filtration - p.birth.filtration
            assert p.lifetime >= 0


def test_pairing_cycles_reproduce_boundaries():
    # Replaying each death column against the earlier pairs' stored cycles
    # must reproduce the stored cycle with unit pivot coefficient, and
    # essentials must replay to zero.
    rng = random.Random(12)
    for trial in range(20):
        field = corpus_fields()[trial % 4]
        c = random_complex(rng, rng.randint(3, 30), field)
        pairing, _ = decompose(c)
        by_degree = {}
        for p in pairing.pairs:
            by_degree.setdefault(p.death.degree, []).append(p)

        def replay(n, column, upto):
            pivots = {}
            for p in by_degree.get(n, [])[:upto]:
                pivots[p.birth.gid] = dict(p.cycle)
            col = dict(column)
            changed = True
            while changed:
                changed = False
                for gid in sorted(col, reverse=True):
                    if gid in pivots and not field.is_zero(col[gid]):
                        coeff = col[gid]
                        for r, v in pivots[gid].items():
                            col[r] = field.add(col.get(r, field.zero),
                                               field.neg(field.mul(coeff, v)))
                        changed = True
                        break
            return {r: v for r, v in col.items() if not field.is_zero(v)}

        for n, plist in by_degree.items():
            # pairs are recorded in processing order within each degree
            for k, p in enumerate(plist):
                reduced = replay(n, c.column(n, p.death.gid), k)
                lead = reduced[p.birth.gid]
                normalized = {r: field.mul(field.inv(lead), v)
                              for r, v in reduced.items()}
                assert normalized == dict(p.cycle)
        for g in pairing.essentials:
            full = len(by_degree.get(g.degree, []))
            assert replay(g.degree, c.column(g.degree, g.gid), full) == {}


def test_pair_cycle_is_a_new_list_on_every_read():
    # cycles are built from the reducer's stored pivots when read: a caller
    # that edits one changes neither the next read nor any pivot
    rng = random.Random(8)
    seen = 0
    for trial in range(16):
        field = corpus_fields()[trial % 4]
        pairing, _ = decompose(random_complex(rng, rng.randint(5, 30), field))
        # a list pivot is copied; a GF(2) pivot is an int, immutable, kept as it is
        pivots = [copy(p.pivot) for p in pairing.pairs]
        stored = {id(p.reducer): {r: copy(col) for r, col in p.reducer.pivots.items()}
                  for p in pairing.pairs}
        for p in pairing.pairs:
            first, second = p.cycle, p.cycle
            assert first == second and first is not second
            first.reverse()
            first.append((-1, field.one))
            assert p.cycle == second
            seen += 1
        assert [p.pivot for p in pairing.pairs] == pivots
        assert {id(p.reducer): p.reducer.pivots for p in pairing.pairs} == stored
    assert seen > 20


def test_q_decompose_is_invariant_under_rescaled_generators():
    # g -> lam_g * g multiplies d(g) by lam_g and row g by 1 / lam_g; the
    # barcode, the pairs and the unit-lead cycles read back in the old basis
    # stay the same however large the rationals get
    rng = random.Random(41)
    huge = [Fraction(10**30, 7), Fraction(-7, 10**30), Fraction(3, 10**20)]
    for trial in range(30):
        c = random_complex(rng, rng.randint(3, 40), Q)
        lam = {(g.degree, g.gid): rng.choice([*huge, Fraction(rng.randint(1, 9), 4)])
               for g in c.all_generators()}
        scaled = FilteredChainComplex(Q, c.generators, {
            n: [[(r, v * lam[(n, g.gid)] / lam[(n - 1, r)]) for r, v in c.column(n, g.gid)]
                for g in c.gens(n)]
            for n in c.degrees()})
        pairing, barcode = decompose(c)
        pairing_s, barcode_s = decompose(scaled)
        assert barcode_s == barcode, trial
        assert len(pairing_s.pairs) == len(pairing.pairs)
        for p, ps in zip(pairing.pairs, pairing_s.pairs):
            assert (ps.death, ps.birth) == (p.death, p.birth)
            n = p.birth.degree
            back = [(r, v * lam[(n, r)]) for r, v in ps.cycle]
            lead = dict(back)[p.birth.gid]
            assert [(r, v / lead) for r, v in back] == p.cycle, trial


def test_betti_matches_rank_oracle_on_random_complexes():
    rng = random.Random(21)
    for trial in range(12):
        field = corpus_fields()[trial % 4]
        c = random_complex(rng, rng.randint(3, 18), field)
        if not c.degrees():
            continue
        _, b = decompose(c)
        lo, hi = c.min_level, c.max_level
        for n in c.degrees():
            for i in range(lo, hi + 1):
                for j in range(i, hi + 1):
                    assert betti(b, n, i, j) == persistent_betti(c, n, i, j), \
                        (trial, n, i, j)


def test_barcode_matches_inclusion_exclusion_oracle():
    rng = random.Random(23)
    for trial in range(12):
        field = corpus_fields()[trial % 4]
        c = random_complex(rng, rng.randint(3, 16), field)
        _, b = decompose(c)
        assert b == barcode_by_rank(c), trial


def _bar_order(e):  # birth order, finite lifetimes ascending, essentials last
    return (e.degree, e.birth, e.lifetime == INF, 0 if e.lifetime == INF else e.lifetime)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.builds(BarEntry, st.integers(0, 3), st.integers(-3, 3),
                          st.one_of(st.integers(1, 10 ** 20), st.just(INF))), max_size=30))
def test_barcode_entries_sort_bars_with_essentials_last(bars):
    b = Barcode({e: bars.count(e) for e in bars})
    assert [e for e, _ in b.entries()] == sorted(set(bars), key=_bar_order)


# -- the open-row bound: columns skipped because they must reduce to zero -----

def _grid_rips(rows: int, cols: int, field):
    """Rips complex (max_dim 2, threshold 2) on a rows x cols integer grid: 4 levels."""
    pts = [(x, y) for x in range(rows) for y in range(cols)]
    return simplicial_to_chain(rips(PointCloud.from_points(pts), 2, 2.0), field)


def _count_reduce_calls(monkeypatch) -> list:
    """The reducer class of each ``reduce`` call, in call order."""
    calls = []
    for cls in (ColumnReducer, BitReducer, SignReducer):
        def counted(self, col, reduce=cls.reduce):
            calls.append(type(self))
            return reduce(self, col)

        monkeypatch.setattr(cls, "reduce", counted)
    return calls


def test_decompose_skips_columns_below_the_first_open_row(monkeypatch):
    c = _grid_rips(5, 6, GF2)
    calls = _count_reduce_calls(monkeypatch)
    pairing, _ = decompose(c)
    # every pair is a reduced column, and some nonzero columns are never reduced
    assert 0 < len(pairing.pairs) <= len(calls) and set(calls) == {BitReducer}
    assert len(calls) < sum(1 for n in c.degrees() for g in c.gens(n) if c.column(n, g.gid))
    # a skipped column is never a pair: there is still one pair per unit of rank
    assert len(pairing.pairs) == sum(rank(c.boundary_matrix(n), GF2) for n in c.degrees())


@pytest.mark.parametrize("field", corpus_fields(), ids=str)
def test_bounded_decompose_matches_rank_oracle_on_a_rips_complex(field):
    c = _grid_rips(3, 4, field)
    _, b = decompose(c)
    assert b == barcode_by_rank(c)
    assert verify(c, c.filtration_span + 1).all_passed


@pytest.mark.parametrize("gens, bnd, bars, reduced", [
    # an essential loop on the first row of degree 1 keeps every column open
    ([("loop", 1, 0), ("e", 1, 0), ("f", 2, 1), ("g", 2, 2)],
     {"f": [(1, "e")], "g": [(1, "e")]},
     {(1, 0, INF): 1, (1, 0, 1): 1, (2, 2, INF): 1}, 2),
    # without it, f closes the only row and g is skipped
    ([("e", 1, 0), ("f", 2, 1), ("g", 2, 2)],
     {"f": [(1, "e")], "g": [(1, "e")]},
     {(1, 0, 1): 1, (2, 2, INF): 1}, 1),
    # no degree 1: degree 2 has no rows, every degree-2 row is positive for d_3
    ([("a", 0, 0), ("b", 0, 1), ("t", 2, 1), ("u", 2, 3), ("w", 3, 4)],
     {"w": [(1, "u")]},
     {(0, 0, INF): 1, (0, 1, INF): 1, (2, 1, INF): 1, (2, 3, 1): 1}, 1),
    # an empty column among nonempty ones stays essential, unreduced
    ([("a", 0, 0), ("b", 0, 0), ("e", 1, 1), ("z", 1, 2), ("y", 1, 3)],
     {"e": [(-1, "a"), (1, "b")], "y": [(-1, "a"), (1, "b")]},
     {(0, 0, INF): 1, (0, 0, 1): 1, (1, 2, INF): 1, (1, 3, INF): 1}, 2),
], ids=["essential-first-row", "first-row-closed", "degree-gap", "empty-column"])
@pytest.mark.parametrize("field", corpus_fields(), ids=str)
def test_open_row_bound_edge_cases(monkeypatch, field, gens, bnd, bars, reduced):
    c = FilteredChainComplex.from_named(field, gens, bnd)
    calls = _count_reduce_calls(monkeypatch)
    _, b = decompose(c)
    assert calls == [{GF2: BitReducer, Q: SignReducer}.get(field, ColumnReducer)] * reduced
    assert b == Barcode({BarEntry(*bar): m for bar, m in bars.items()})
    assert b == barcode_by_rank(c)


# -- columns over rows as stored, or reindexed into (filtration, id) order ----

def _in_level_order(c):
    """``c`` relabelled so that each degree's ids run in (filtration, id) order."""
    order = {n: sorted(range(c.n_gens(n)), key=lambda i: (c.gens(n)[i].filtration, i))
             for n in c.degrees()}
    new_id = {n: {old: new for new, old in enumerate(ids)} for n, ids in order.items()}
    gens = {n: [c.gens(n)[old]._replace(gid=new) for new, old in enumerate(ids)]
            for n, ids in order.items()}
    boundary = {n: [sorted((new_id[n - 1][r], v) for r, v in c.column(n, old)) for old in ids]
                for n, ids in order.items()}
    return FilteredChainComplex(c.field, gens, boundary)


def _assert_valid_cycle(c, pair, earlier):
    """``pair.cycle`` has a unit lead at the birth row, every other entry on an
    earlier (filtration, id) row and no boundary, and it is d(death) plus a
    combination of the earlier columns, up to a nonzero scalar (dense ranks)."""
    field, n, birth = c.field, pair.death.degree, pair.birth
    cycle = dict(pair.cycle)
    assert cycle[birth.gid] == field.one
    assert all((c.gens(n - 1)[r].filtration, r) <= (birth.filtration, birth.gid)
               for r in cycle)
    dd = {}
    for r, v in cycle.items():
        for q, u in c.column(n - 1, r):
            dd[q] = field.add(dd.get(q, field.zero), field.mul(v, u))
    assert all(field.is_zero(v) for v in dd.values())

    def dense(col):
        row = [field.zero] * c.n_gens(n - 1)
        for r, v in col:
            row[r] = v
        return row
    span = [dense(c.column(n, g.gid)) for g in earlier]
    death, cycle = dense(c.column(n, pair.death.gid)), dense(pair.cycle)
    base = dense_rank(span, field)
    assert dense_rank(span + [cycle], field) == base + 1
    assert dense_rank(span + [death], field) == dense_rank(span + [death, cycle], field) == base + 1


@pytest.mark.parametrize("field", corpus_fields(), ids=str)
def test_decompose_agrees_on_rows_as_stored_and_reindexed(field):
    # the copy in (filtration, id) order reduces its columns as stored, the
    # shuffled copy reindexes them; both must give one barcode and one
    # multiset of pairs, each with a valid cycle
    rng = random.Random(77)
    paths = Counter()
    for trial in range(12):
        shuffled = permute_generators(rng, random_complex(rng, rng.randint(6, 30), field))
        results = []
        for c in (shuffled, _in_level_order(shuffled)):
            pairing, barcode = decompose(c)
            for p in pairing.pairs:
                paths[c is shuffled, type(p.rows)] += 1
                n = p.death.degree
                earlier = [g for g in c.gens(n) if (g.filtration, g.gid)
                           < (p.death.filtration, p.death.gid)]
                _assert_valid_cycle(c, p, earlier)
            results.append((barcode,
                            Counter((p.birth.degree, p.birth.filtration, p.death.filtration)
                                    for p in pairing.pairs),
                            Counter((g.degree, g.filtration) for g in pairing.essentials)))
        assert results[0] == results[1], trial
    assert paths[False, range] > 20 and paths[True, list] > 20
    assert not paths[False, list]


def test_both_engines_pair_as_the_pairing_lemma_says():
    # decompose's pairs, zero-length ones included, and the direct engine's
    # coboundary pairs are the dense oracle's, over each corpus field, and
    # over Q from text, whose whole coefficients the reader keeps as ints
    rng = random.Random(29)
    cases = [random_complex(rng, rng.randint(3, 40), corpus_fields()[k % 4]) for k in range(80)]
    cases += [parse_complex(serialize_complex(whole_basis(random_complex(rng, size, Q))), Q)
              for size in [rng.randint(3, 40) for _ in range(20)]]
    cloud = PointCloud.from_points([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0.5), (0.5, 2), (2, 2)])
    cases.append(parse_complex(serialize_simplicial(rips(cloud, 2, 1.6), Q), Q))
    assert all(type(v) is int for c in cases[80:] for cols in c.boundary.values()
               for col in cols for _, v in col)
    cancelled = 0
    for k, c in enumerate(cases):
        want = pairs_by_rank(c)
        pairs = decompose(c)[0].pairs
        assert sorted((p.death.degree, p.birth.gid, p.death.gid) for p in pairs) == want, k
        assert sorted(_coboundary_pairs(c)) == want, k
        cancelled += sum(p.cancelled for p in pairs)
    assert cancelled


@pytest.mark.parametrize("field", corpus_fields(), ids=str)
def test_every_reducer_takes_a_sorted_list_from_decompose(monkeypatch, field):
    # a rips complex read back from text runs its stored rows, a shuffled copy
    # is reindexed; either way, over every field, decompose hands each reducer
    # a (row, coeff) list with strictly increasing rows
    given = []
    for cls in (ColumnReducer, BitReducer, SignReducer):
        def recorded(self, col, reduce=cls.reduce):
            given.append(col)
            return reduce(self, col)

        monkeypatch.setattr(cls, "reduce", recorded)
    rng = random.Random(8)
    cloud = PointCloud.from_points([(rng.random(), rng.random()) for _ in range(14)])
    text = parse_complex(serialize_simplicial(rips(cloud, 2, 0.45), field), field)
    paths = []
    for c in (text, permute_generators(rng, text)):
        del given[:]
        pairs = decompose(c)[0].pairs
        paths.append({type(p.rows) for p in pairs})
        assert given and all(type(col) is list and col for col in given)
        assert all(a < b for col in given for (a, _), (b, _) in pairwise(col))
    assert paths[0] == {range} and list in paths[1]


# -- over GF(2) decompose reduces bitsets; the page engine keeps the lists ----

def test_gf2_decompose_pairs_as_the_coboundary_engine_on_rips_complexes(monkeypatch):
    # a rips complex read back from text runs its stored rows, a shuffled copy
    # is reindexed; over GF(2) decompose reduces them as bitsets, and its pairs
    # are those of the direct engine's coboundary pairing on list columns
    rng = random.Random(5)
    run = _count_reduce_calls(monkeypatch)
    cloud = PointCloud.from_points([(rng.random(), rng.random()) for _ in range(14)])
    text = parse_complex(serialize_simplicial(rips(cloud, 2, 0.45), GF2), GF2)
    cases = [_grid_rips(4, 5, GF2), text]
    cases += [permute_generators(rng, c) for c in cases]
    paths = []
    for c in cases:
        del run[:]
        pairs = decompose(c)[0].pairs
        assert set(run) == {BitReducer} and all(type(p.pivot) is int for p in pairs)
        paths.append({type(p.rows) for p in pairs})
        del run[:]
        want = sorted(_coboundary_pairs(c))
        assert run and set(run) == {ColumnReducer}
        assert sorted((p.death.degree, p.birth.gid, p.death.gid) for p in pairs) == want
        for p in pairs:
            assert all(v == 1 for _, v in p.cycle) and dict(p.cycle)[p.birth.gid] == 1
    assert paths[:2] == [{range}] * 2 and all(list in rows for rows in paths[2:])


def test_q_decompose_pairs_as_the_coboundary_engine_on_rips_complexes(monkeypatch):
    # over Q the same cases, from simplicial_to_chain and from text (int signs
    # both ways): decompose reduces them as sign bitsets, and on some a step
    # puts +-2 on a row and its column goes on as a list; its pairs are those
    # of the coboundary pairing, which runs only ColumnReducer
    rng = random.Random(5)
    run = _count_reduce_calls(monkeypatch)
    switched = []
    reduce_list = SignReducer._reduce_list
    monkeypatch.setattr(SignReducer, "_reduce_list", lambda self, col, above: (
        switched.append(above) or reduce_list(self, col, above)))
    cases = [_grid_rips(4, 5, Q)]
    for points, threshold in ((14, 0.45), (50, 0.25)):
        cloud = PointCloud.from_points([(rng.random(), rng.random()) for _ in range(points)])
        cases.append(parse_complex(serialize_simplicial(rips(cloud, 2, threshold), Q), Q))
    cases += [permute_generators(rng, c) for c in cases]
    paths, lists = [], []
    for c in cases:
        assert all(type(v) is int for cols in c.boundary.values() for col in cols for _, v in col)
        del run[:], switched[:]
        pairs = decompose(c)[0].pairs
        assert set(run) == {SignReducer} and INF not in switched
        lists.append(len(switched))
        paths.append({type(p.rows) for p in pairs})
        del run[:]
        want = sorted(_coboundary_pairs(c))
        assert run and set(run) == {ColumnReducer}
        assert sorted((p.death.degree, p.birth.gid, p.death.gid) for p in pairs) == want
        for p in pairs:
            assert all(type(v) is Fraction for _, v in p.cycle)
            assert dict(p.cycle)[p.birth.gid] == 1
    assert paths[:3] == [{range}] * 3 and all(list in rows for rows in paths[3:])
    assert any(lists), lists


def test_gf2_page_engine_ranks_and_kernels_reduce_lists(monkeypatch):
    c = _grid_rips(3, 3, GF2)
    c.validate()
    run = _count_reduce_calls(monkeypatch)
    m = c.boundary_matrix(1)
    assert rank(m, GF2) + kernel(m, GF2).n_cols == m.n_cols
    assert pages_direct(c, 2) and c.homology_dim(1) == 0
    assert run and set(run) == {ColumnReducer}


def test_a_pivot_left_unnormalized_raises_instead_of_looping(monkeypatch):
    # a stored pivot whose lead is not one leaves the row it should clear
    # nonzero, so reduce would hit that row forever; it must raise at once
    def skips_normalizing(self, col):
        self.pivots[col[-1][0]] = col
        return col[-1][0]

    c = _grid_rips(3, 4, PrimeField(5))
    monkeypatch.setattr(ColumnReducer, "add_pivot", skips_normalizing)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="stored pivot is broken"):
        decompose(c)
    assert time.perf_counter() - start < 1
