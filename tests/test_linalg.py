import random
from collections import Counter
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from spectra_persist import linalg
from spectra_persist.errors import UsageError
from spectra_persist.fields import PrimeField, RationalField
from spectra_persist.linalg import (BitReducer, ColumnReducer, SparseMatrix, axpy, canonical,
                                   kernel, rank)
from spectra_persist.signs import SignReducer

from oracles import column_by_sum, dense_kernel, dense_rank, subquotient_dim

GF2 = PrimeField(2)
Q = RationalField()


def frac_col(entries):
    return [(r, Fraction(v)) for r, v in entries]


def test_axpy_cancellation():
    assert axpy(Q, frac_col([(0, 1)]), Fraction(-1), frac_col([(0, 1)])) == []


def test_axpy_disjoint_merge():
    got = axpy(Q, frac_col([(0, 1), (2, 1)]), Fraction(1), frac_col([(1, 1)]))
    assert got == frac_col([(0, 1), (1, 1), (2, 1)])


def test_axpy_gf2():
    got = axpy(GF2, [(0, 1), (1, 1)], 1, [(1, 1), (3, 1)])
    assert got == [(0, 1), (3, 1)]


def test_rank_identity_over_q():
    m = SparseMatrix(2, [frac_col([(0, 1)]), frac_col([(1, 1)])])
    assert rank(m, Q) == 2


def test_rank_zero_matrix():
    m = SparseMatrix(3, [[], [], [], []])
    assert rank(m, Q) == 0


def test_rank_equal_columns_gf2():
    m = SparseMatrix(2, [[(0, 1), (1, 1)], [(0, 1), (1, 1)]])
    assert rank(m, GF2) == 1


# frozen cases for the page oracle's subquotient dimension

def test_subquotient_contained():
    e0 = SparseMatrix(2, [frac_col([(0, 1)])])
    assert subquotient_dim(e0, e0, Q) == 0


def test_subquotient_zero_denominator():
    num = SparseMatrix(2, [frac_col([(0, 1)]), frac_col([(1, 1)])])
    assert subquotient_dim(num, SparseMatrix(2, []), Q) == 2


def test_subquotient_diagonal_line():
    # span{e0 + e1} over span{e1} in ambient dim 2; frozen expectation 1
    # from brute-force elimination on the stacked 2x2 matrix.
    num = SparseMatrix(2, [frac_col([(0, 1), (1, 1)])])
    den = SparseMatrix(2, [frac_col([(1, 1)])])
    assert subquotient_dim(num, den, Q) == 1


def test_malformed_column_rejected():
    with pytest.raises(UsageError):
        SparseMatrix(2, [[(1, 1), (0, 1)]])  # rows not increasing
    with pytest.raises(UsageError):
        SparseMatrix(1, [[(4, 1)]])  # out of range


def _random_matrix(rng, n_rows, n_cols, field, density=0.4):
    cols = []
    for _ in range(n_cols):
        col = []
        for r in range(n_rows):
            if rng.random() < density:
                if isinstance(field, PrimeField):
                    col.append((r, rng.randrange(1, field.p)))
                else:
                    col.append((r, Fraction(rng.randint(-4, 4) or 1)))
        cols.append(col)
    return SparseMatrix(n_rows, cols)


def test_rank_invariant_under_column_permutation_and_axpy():
    rng = random.Random(7)
    for trial in range(40):
        field = [GF2, PrimeField(5), Q][trial % 3]
        m = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), field)
        base = rank(m, field)
        cols = list(m.columns)
        rng.shuffle(cols)
        assert rank(SparseMatrix(m.n_rows, cols), field) == base
        if len(cols) >= 2:
            i, j = rng.sample(range(len(cols)), 2)
            c = field.normalize(rng.randint(1, 3))
            cols[i] = axpy(field, cols[i], c, cols[j])
            assert rank(SparseMatrix(m.n_rows, cols), field) == base


def test_rank_over_q_matches_large_prime():
    # integer matrices: rank over Q agrees with rank mod 32003
    rng = random.Random(3)
    big = PrimeField(32003)
    for _ in range(25):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
        entries = [[rng.randint(-5, 5) for _ in range(n_cols)] for _ in range(n_rows)]
        q_cols = [[(r, Fraction(entries[r][j])) for r in range(n_rows) if entries[r][j]]
                  for j in range(n_cols)]
        p_cols = [[(r, entries[r][j] % 32003) for r in range(n_rows)
                   if entries[r][j] % 32003] for j in range(n_cols)]
        assert rank(SparseMatrix(n_rows, q_cols), Q) == \
            rank(SparseMatrix(n_rows, p_cols), big)


def test_kernel_vectors_annihilate():
    rng = random.Random(5)
    for _ in range(30):
        field = [GF2, Q][rng.randint(0, 1)]
        m = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), field)
        k = kernel(m, field)
        assert k.n_cols == m.n_cols - rank(m, field)
        for combo in k.columns:
            acc = []
            for j, v in combo:
                acc = axpy(field, acc, v, m.columns[j])
            assert acc == []


def test_kernel_basis_is_prefix_adapted():
    # vector k ends in (j_k, one) with j_1 < j_2 < ...; random_complex relies
    # on this to give each cycle the level of its last column
    rng = random.Random(9)
    for trial in range(60):
        field = [GF2, PrimeField(5), Q][trial % 3]
        m = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 9), field)
        lasts = []
        for combo in kernel(m, field).columns:
            j, v = combo[-1]
            assert v == field.one
            assert all(r < j for r, _ in combo[:-1])
            lasts.append(j)
        assert lasts == sorted(set(lasts))


@pytest.mark.parametrize("field", [GF2, PrimeField(5), Q], ids=str)
def test_kernel_reduces_no_empty_column(field, monkeypatch):
    # an empty column is its own kernel vector, [(j, one)], as it stands
    handed = []
    reduce = ColumnReducer.reduce
    monkeypatch.setattr(ColumnReducer, "reduce",
                        lambda self, col: handed.append(col) or reduce(self, col))
    m = SparseMatrix(2, [[], [(0, field.one)], [], [(0, field.one)], [(1, field.one)], []])
    assert kernel(m, field).columns == [[(0, field.one)], [(2, field.one)],
                                        [(1, field.neg(field.one)), (3, field.one)],
                                        [(5, field.one)]]
    assert [col[-1][0] for col in handed] == [0, 0, 1]  # columns 1, 3 and 4


def _huge_or_small(rng):
    return rng.choice([Fraction(10**30, 7), Fraction(-7, 10**30), Fraction(-3, 10**20),
                       Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))])


def test_q_rank_and_kernel_match_dense_oracles_under_column_scaling():
    # the integer kernel must give the same rank and the same kernel basis
    # (last entry one on column j, other entries on earlier pivot columns)
    # whatever the size of the rationals
    rng = random.Random(31)
    for trial in range(60):
        m = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 8), Q)
        cols = []
        for col in m.columns:
            s = _huge_or_small(rng)
            cols.append([(r, v * s * (_huge_or_small(rng) if trial % 2 else 1))
                         for r, v in col])
        dense = [[dict(col).get(r, Q.zero) for col in cols] for r in range(m.n_rows)]
        scaled = SparseMatrix(m.n_rows, cols)
        assert rank(scaled, Q) == dense_rank(dense, Q), trial
        want = [[(j, v) for j, v in enumerate(vec) if v] for vec in dense_kernel(dense, Q)]
        assert kernel(scaled, Q).columns == want, trial


@pytest.mark.parametrize("field", [GF2, PrimeField(5), PrimeField(32003), Q], ids=str)
def test_rank_and_kernel_match_dense_oracles(field, monkeypatch):
    # some columns are combinations of earlier ones, so the reducer has to
    # eliminate down to zero and the kernels are not all trivial; each
    # elimination clears the column's highest pivot row and adds rows only
    # below it, so a column takes at most n_rows of them
    rng = random.Random(str(field))
    step = "_int_axpy" if field == Q else "axpy"
    eliminate, budget = getattr(linalg, step), [0]

    def counted(*args):
        budget[0] -= 1
        assert budget[0] >= 0, "the elimination loop does not clear its pivot rows"
        return eliminate(*args)
    monkeypatch.setattr(linalg, step, counted)
    for trial in range(60):
        m = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 8), field)
        cols = []
        for col in m.columns:
            if len(cols) >= 2 and rng.random() < 0.4:
                a, b = rng.sample(cols, 2)
                col = axpy(field, a, field.normalize(rng.randint(1, 3)) or field.one, b)
            cols.append(col)
        dense = [[dict(col).get(r, field.zero) for col in cols] for r in range(m.n_rows)]
        m = SparseMatrix(m.n_rows, cols)
        budget[0] = m.n_cols * m.n_rows
        assert rank(m, field) == dense_rank(dense, field), trial
        want = [[(j, v) for j, v in enumerate(vec) if v] for vec in dense_kernel(dense, field)]
        budget[0] = m.n_cols * m.n_rows
        assert kernel(m, field).columns == want, trial


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       field=st.sampled_from([GF2, PrimeField(5), PrimeField(32003), Q]))
def test_canonical_sums_like_a_dict(seed, field):
    # few rows, so rows repeat; a pair on one row that cancels; explicit zeros
    rng = random.Random(seed)

    def scalar():
        v = field.normalize(rng.randint(-3, 3))
        return v / rng.randint(1, 3) if field == Q else v

    col = [(rng.randrange(6), scalar()) for _ in range(rng.randint(0, 10))]
    if rng.random() < 0.5:
        v, r = scalar(), rng.randrange(6)
        col += [(r, v), (r, field.neg(v))]
    rng.shuffle(col)
    expected = column_by_sum(field, col)
    assert canonical(field, list(col), True) == expected
    if not any(field.is_zero(v) for _, v in col):
        assert canonical(field, list(col), False) == expected


def test_bit_reducer_matches_the_list_reducer_over_gf2():
    # fresh columns, zero columns, repeats and sums of earlier columns, on up
    # to 150 rows (past one machine word): given the same list, both reducers
    # leave the same column, record the same pivot rows and hold the same pivots
    rng = random.Random(13)
    outcomes = Counter()
    for trial in range(150):
        n_rows = rng.randint(1, 150)
        lists, bits = ColumnReducer(GF2), BitReducer()
        seen = []
        for _ in range(rng.randint(1, 30)):
            kind = rng.choice(["fresh", "fresh", "zero", "repeat", "sum"] if seen else ["fresh"])
            if kind == "fresh":
                rows = {r for r in range(n_rows) if rng.random() < 0.2}
            elif kind == "zero":
                rows = set()
            elif kind == "repeat":
                rows = rng.choice(seen)
            else:
                rows = set()
                for earlier in rng.sample(seen, rng.randint(1, len(seen))):
                    rows ^= earlier
            seen.append(rows)
            given = [(r, 1) for r in sorted(rows)]
            col, x = lists.reduce(given), bits.reduce(given)
            assert type(x) is int and BitReducer.scalars(x) == col, trial
            outcomes[kind, bool(col)] += 1
            if col:
                assert bits.add_pivot(x) == lists.add_pivot(col), trial
        assert {r: bits.scalars(x) for r, x in bits.pivots.items()} == lists.pivots, trial
    assert outcomes["zero", True] == 0 and outcomes["repeat", True] == 0
    assert all(outcomes[kind, False] > 20 for kind in ("fresh", "zero", "repeat", "sum"))
    assert outcomes["fresh", True] > 100 and outcomes["sum", True] == 0


def test_sign_reducer_matches_the_list_reducer_over_q(monkeypatch):
    # int +-1 columns, ones with an entry forced to +-2, fractional ones, zero
    # ones, repeats (maybe negated) and sums of earlier columns, on up to 150
    # rows: both reducers leave the same column through scalars, record the
    # same pivot rows and hold the same pivots; sign columns that meet a step
    # putting +-2 on a row go on as lists
    switched = []
    loop = ColumnReducer._reduce
    monkeypatch.setattr(ColumnReducer, "_reduce", lambda self, col, above: (
        type(self) is SignReducer and switched.append(above != inf) or loop(self, col, above)))
    rng = random.Random(17)
    outcomes = Counter()
    for trial in range(150):
        n_rows = rng.randint(1, 150)
        lists, signs = ColumnReducer(Q), SignReducer()
        seen = []
        for _ in range(rng.randint(1, 30)):
            kind = rng.choice(["signs", "signs", "signs", "two", "fraction", "zero", "repeat",
                               "sum"] if seen else ["signs"])
            density = rng.choice([0.05, 0.2, 0.5])
            rows = [r for r in range(n_rows) if rng.random() < density]
            if kind == "signs":
                entries = {r: rng.choice([1, -1]) for r in rows}
            elif kind == "two":
                entries = {r: rng.choice([1, -1]) for r in rows} or {0: 1}
                entries[rng.choice(list(entries))] = rng.choice([2, -2])
            elif kind == "fraction":
                entries = {r: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) for r in rows}
            elif kind == "zero":
                entries = {}
            elif kind == "repeat":
                sign = rng.choice([1, -1])
                entries = {r: sign * v for r, v in rng.choice(seen).items()}
            else:
                entries = Counter()
                for earlier in rng.sample(seen, rng.randint(1, min(3, len(seen)))):
                    sign = rng.choice([1, -1])
                    entries.update({r: sign * v for r, v in earlier.items()})
            entries = {r: v for r, v in entries.items() if v}
            seen.append(entries)
            col = lists.reduce(sorted(entries.items()))
            x = signs.reduce(sorted(entries.items()))
            assert (x == []) == (col == []), trial
            outcomes[kind, type(x).__name__] += 1
            if col:
                assert signs.scalars(x) == lists.scalars(col), trial
                assert signs.add_pivot(x) == lists.add_pivot(col), trial
        assert ({r: signs.scalars(x) for r, x in signs.pivots.items()}
                == {r: lists.scalars(x) for r, x in lists.pivots.items()}), trial
        # every stored pivot leads with 1, or with a positive int as a list
        assert all(x[0] >> r & 1 if type(x) is tuple else x[-1][1] > 0
                   for r, x in signs.pivots.items()), trial
    assert outcomes["zero", "tuple"] == outcomes["repeat", "tuple"] == 0
    assert all(outcomes[kind, "list"] > 20 for kind in ("signs", "two", "fraction", "zero",
                                                         "repeat", "sum"))
    assert outcomes["signs", "tuple"] > 100 and outcomes["fraction", "tuple"] == 0
    assert switched.count(True) > 50 and switched.count(False) > 50


def test_a_sign_step_adds_or_subtracts_the_pivot_by_the_sign_it_hits(monkeypatch):
    # the pivot of (0, 1), (2, -1) is stored as its negative, leading with 1;
    # columns hitting row 2 at 1 or at -1 then meet no +-2, so neither leaves
    # the sign path for the list loop
    monkeypatch.setattr(ColumnReducer, "_reduce", None)
    signs = SignReducer()
    assert signs.add_pivot(signs.reduce([(0, 1), (2, -1)])) == 2
    assert signs.pivots[2] == (0b100, 0b001)
    assert signs.reduce([(1, 1), (2, 1)]) == (0b011, 0)
    assert signs.reduce([(1, 1), (2, -1)]) == (0b001, 0b010)  # -(col + pivot)
    assert signs.reduce([(0, -1), (2, 1)]) == signs.reduce([(0, 1), (2, -1)]) == []


@pytest.mark.parametrize("field", [GF2, PrimeField(5), Q], ids=str)
def test_every_list_step_runs_in_the_one_loop_through_its_fields_step(monkeypatch, field):
    # ColumnReducer on GF(2) lists, over GF(5) and over Q, and SignReducer's
    # list fallback over Q: each elimination is an axpy over GF(p) and an
    # _int_eliminate over Q, made inside ColumnReducer._reduce, once per
    # ColumnReducer.reduce and once per fallback
    inside, steps, loops = [], Counter(), Counter()
    loop = ColumnReducer._reduce

    def counted_loop(self, col, above):
        loops[type(self)] += 1
        inside.append(type(self))
        try:
            return loop(self, col, above)
        finally:
            inside.pop()

    def counted(name, fn):
        def step(*args):
            assert inside, f"{name} ran outside ColumnReducer._reduce"
            steps[inside[-1], name] += 1
            return fn(*args)
        return step

    monkeypatch.setattr(ColumnReducer, "_reduce", counted_loop)
    originals = {name: getattr(linalg, name) for name in ("axpy", "_int_eliminate")}
    for target in ("linalg.axpy", "linalg._int_eliminate", "signs._int_eliminate"):
        name = target.split(".")[1]
        monkeypatch.setattr(f"spectra_persist.{target}", counted(name, originals[name]))
    rng = random.Random(str(field))
    values = [1, -1, 1, -1, 2, Fraction(1, 3)] if field == Q else range(1, field.p)
    reducers = [ColumnReducer(field)] + ([SignReducer()] if field == Q else [])
    reduced = Counter()
    for trial in range(40):
        n_rows, seen = rng.randint(1, 40), []
        for red in reducers:
            red.pivots.clear()
            if type(red) is SignReducer:
                red._mask = 0
        for _ in range(rng.randint(1, 20)):
            entries = Counter({r: rng.choice(values) for r in range(n_rows) if rng.random() < 0.3})
            for earlier in rng.sample(seen, min(len(seen), rng.randint(0, 2))):
                entries.update({r: v * rng.choice(values) for r, v in earlier.items()})
            entries = {r: v if field == Q else v % field.p for r, v in entries.items()}
            entries = {r: v for r, v in entries.items() if v}
            seen.append(entries)
            for red in reducers:
                col = red.reduce(sorted(entries.items()))
                reduced[type(red)] += 1
                if col:
                    red.add_pivot(col)
    step = "_int_eliminate" if field == Q else "axpy"
    assert loops[ColumnReducer] == reduced[ColumnReducer]
    assert set(steps) == {(type(red), step) for red in reducers}, steps
    assert all(n > 20 for n in steps.values()), steps
    if field == Q:
        # the sign path clears some rows with bit operations, none twice
        assert 0 < loops[SignReducer] < reduced[SignReducer]
        assert steps[SignReducer, step] < steps[ColumnReducer, step]


def test_a_pivot_that_does_not_clear_its_row_raises():
    # a pivot stored under row 1 with no entry there: each step adds it and
    # row 1 stays, so without the check reduce would loop forever
    lists, bits = ColumnReducer(PrimeField(5)), BitReducer()
    signs, empty, mixed = SignReducer(), SignReducer(), SignReducer()
    lists.pivots[1] = [(0, 1), (2, 1)]
    bits.pivots[1], bits._mask = 0b101, 0b010
    signs.pivots[1], signs._mask = (0b101, 0), 0b010
    empty.pivots[1], empty._mask = (0, 0), 0b010  # its step never meets a +-2
    mixed.pivots[1], mixed._mask = [(0, 2), (2, 1)], 0b010  # the list path's step
    for reducer, col in ((lists, [(1, 1)]), (bits, [(1, 1)]), (signs, [(1, 1)]),
                         (signs, [(1, -1)]), (empty, [(1, 1)]), (mixed, [(1, 1)]),
                         (mixed, [(1, Fraction(1, 2))])):
        with pytest.raises(RuntimeError, match="stored pivot is broken"):
            reducer.reduce(col)
