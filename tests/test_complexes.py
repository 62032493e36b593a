import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spectra_persist import complexes
from spectra_persist.complexes import FilteredChainComplex, Generator, homology_dims_by_level
from spectra_persist.errors import InvalidComplexError, UsageError
from spectra_persist.fields import PrimeField, RationalField
from spectra_persist.ingest import parse_complex
from spectra_persist.linalg import ColumnReducer
from spectra_persist.randomgen import permute_generators, random_complex, random_nonzero_scalar

from helpers import (corpus_fields, counting_integral, fractional_basis, full_triangle,
                     model_pair, triangle, whole_basis)
from oracles import dense_rank, violations_by_axpy

Q = RationalField()
GF2 = PrimeField(2)


def test_single_generator_validates():
    c = FilteredChainComplex.from_named(Q, [("v", 0, 0)])
    assert c.validate() == []


def test_filtration_violation_reported():
    c = FilteredChainComplex.from_named(
        Q, [("a", 1, 0), ("b", 0, 1)], {"a": [(1, "b")]})
    violations = c.validate()
    assert len(violations) == 1
    assert violations[0].degree == 1
    assert "level 1" in violations[0].reason and "level 0" in violations[0].reason
    with pytest.raises(InvalidComplexError):
        c.ensure_valid()


def test_invalid_complex_message_names_three_and_counts_the_rest():
    gens = [("v", 0, 1)] + [(f"e{k}", 1, 0) for k in range(10)]
    c = FilteredChainComplex.from_named(Q, gens, {f"e{k}": [(1, "v")] for k in range(10)})
    with pytest.raises(InvalidComplexError) as exc:
        c.ensure_valid()
    message = str(exc.value)
    assert len(exc.value.violations) == 10
    assert message.count("generator") == 3
    assert message.endswith("; and 7 more")
    assert len(message) < 400 and "\n" not in message


def test_dd_violation_reported():
    c = FilteredChainComplex.from_named(
        Q, [("a", 2, 0), ("b", 1, 0), ("c", 0, 0)],
        {"a": [(1, "b")], "b": [(1, "c")]})
    violations = c.validate()
    assert any(v.degree == 2 and "d∘d" in v.reason for v in violations)


@pytest.mark.parametrize("eps, broken", [(Fraction(0), False),
                                         (Fraction(1, 10**30), True)])
def test_dd_over_q_is_exact_in_fractional_parts(eps, broken):
    # d∘d(t) = (7/9)(3/7) + (1/15)(5/2) - (1/2 + eps) = 1/3 + 1/6 - 1/2 - eps
    c = FilteredChainComplex.from_named(
        Q, [("a", 0, 0), ("e1", 1, 0), ("e2", 1, 0), ("e3", 1, 0), ("t", 2, 0)],
        {"e1": [(Fraction(3, 7), "a")], "e2": [(Fraction(5, 2), "a")], "e3": [(1, "a")],
         "t": [(Fraction(7, 9), "e1"), (Fraction(1, 15), "e2"),
               (-(Fraction(1, 2) + eps), "e3")]})
    reasons = [v.reason for v in c.validate()]
    assert reasons == (["d∘d ≠ 0 at generator t"] if broken else [])
    assert c.validate() == violations_by_axpy(c)


@pytest.mark.parametrize("last, broken", [(4, False), (3, True)])
def test_dd_over_gf5_reduces_each_row_mod_p(last, broken):
    # d∘d(t) = (2*3 + last*1) a: 10 a is zero in GF(5) though the integer sum is not
    gf5 = PrimeField(5)
    c = FilteredChainComplex.from_named(
        gf5, [("a", 0, 0), ("e1", 1, 0), ("e2", 1, 0), ("t", 2, 0)],
        {"e1": [(3, "a")], "e2": [(1, "a")], "t": [(2, "e1"), (last, "e2")]})
    reasons = [v.reason for v in c.validate()]
    assert reasons == (["d∘d ≠ 0 at generator t"] if broken else [])
    assert c.validate() == violations_by_axpy(c)


def test_dd_over_gf2_cancels_a_row_hit_twice():
    # d(t) = e1 + e2 hits b twice, which cancels, and a and c once each,
    # which do not; d(u) = e1 + e2 + e3 hits every vertex twice
    c = FilteredChainComplex.from_named(
        GF2, [("a", 0, 0), ("b", 0, 0), ("c", 0, 0), ("e1", 1, 0), ("e2", 1, 0),
              ("e3", 1, 0), ("t", 2, 0), ("u", 2, 0)],
        {"e1": [(1, "a"), (1, "b")], "e2": [(1, "b"), (1, "c")], "e3": [(1, "a"), (1, "c")],
         "t": [(1, "e1"), (1, "e2")], "u": [(1, "e1"), (1, "e2"), (1, "e3")]})
    assert [v.reason for v in c.validate()] == ["d∘d ≠ 0 at generator t"]
    assert c.validate() == violations_by_axpy(c)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 40),
       field=st.sampled_from([GF2, PrimeField(5), PrimeField(32003), Q]))
def test_validate_matches_the_axpy_oracle(seed, size, field):
    # a random complex passes; a copy with one coefficient moved by a nonzero
    # amount (dropped when it reaches zero) fails where the oracle says
    rng = random.Random(seed)
    c = random_complex(rng, size, field)
    assert c.validate() == violations_by_axpy(c) == []
    entries = [(n, j, k) for n in c.degrees() for j, col in enumerate(c.boundary[n])
               for k in range(len(col))]
    if not entries:
        return
    n, j, k = rng.choice(entries)
    boundary = {m: [list(col) for col in cols] for m, cols in c.boundary.items()}
    r, v = boundary[n][j][k]
    w = field.add(v, random_nonzero_scalar(rng, field))
    boundary[n][j][k:k + 1] = [] if field.is_zero(w) else [(r, w)]
    changed = FilteredChainComplex(field, c.generators, boundary)
    assert changed.validate() == violations_by_axpy(changed)


def test_associated_graded_drops_level_jumps():
    c = model_pair(Q, 0, 2, 3)
    g = c.associated_graded()
    assert g.column(1, 0) == []


def test_associated_graded_keeps_same_level():
    c = model_pair(Q, 0, 2, 0)
    g = c.associated_graded()
    assert g.column(1, 0) == c.column(1, 0)


def test_associated_graded_zero_boundary_unchanged():
    c = FilteredChainComplex.from_named(Q, [("v", 0, 0), ("w", 3, 5)])
    g = c.associated_graded()
    assert g.column(0, 0) == [] and g.column(3, 0) == []


def test_associated_graded_idempotent():
    rng = random.Random(2)
    for _ in range(25):
        c = random_complex(rng, rng.randint(3, 25), Q)
        g = c.associated_graded()
        gg = g.associated_graded()
        assert g.boundary == gg.boundary


def test_homology_single_generator():
    c = FilteredChainComplex.from_named(Q, [("v", 0, 0)])
    assert c.homology_dim(0) == 1


def test_homology_model_pair_vanishes():
    c = model_pair(Q, 0, 2, 3)
    assert c.homology_dim(0) == 0
    assert c.homology_dim(1) == 0


def test_homology_triangle_boundary():
    # frozen via dense elimination: both 3x3 boundary-related ranks are 2
    c = full_triangle()
    dense = [[0] * 3 for _ in range(3)]
    for j in range(3):
        for r, v in c.column(1, j):
            dense[r][j] = v
    assert dense_rank([[Q.normalize(x) for x in row] for row in dense], Q) == 2
    assert c.homology_dim(0) == 1
    assert c.homology_dim(1) == 1


def test_homology_invariant_under_relabeling():
    rng = random.Random(9)
    for _ in range(20):
        c = random_complex(rng, rng.randint(3, 30), GF2)
        p = permute_generators(rng, c)
        for n in range(-2, 5):
            assert c.homology_dim(n) == p.homology_dim(n)


def test_graded_homology_by_level_reads_the_graded_blocks_off_any_complex():
    # the level jump of model_pair is dropped, as associated_graded drops it
    rng = random.Random(3)
    for c in [model_pair(Q, 0, 2, 3), triangle(),
              *(random_complex(rng, rng.randint(3, 25), corpus_fields()[k % 4])
                for k in range(20))]:
        assert homology_dims_by_level(c) == homology_dims_by_level(c.associated_graded())
    assert homology_dims_by_level(model_pair(Q, 0, 2, 3)) == {(0, 2): 1, (1, 5): 1}


def test_graded_homology_by_level_blocks():
    c = triangle()
    dims = homology_dims_by_level(c.associated_graded())
    assert dims[(0, 0)] == 3
    assert dims[(1, 1)] == 2
    assert dims[(1, 2)] == 1


def test_graded_homology_ranks_each_level_block_once(monkeypatch):
    # one reducer per degree reduces each nonempty column of Gr C once, in
    # degree and gid order; an empty one cannot pivot and is only counted, and
    # no level block is copied out and ranked on its own
    c = random_complex(random.Random(33), 60, PrimeField(5))
    reducers, reduced = [], []

    class CountingReducer(ColumnReducer):
        def __init__(self, field):
            reducers.append(field)
            super().__init__(field)

        def reduce(self, col):
            reduced.append(col)
            return super().reduce(col)

    def no_rank(m, field):
        raise AssertionError("a level block was ranked on its own")

    monkeypatch.setattr(complexes, "ColumnReducer", CountingReducer)
    monkeypatch.setattr(complexes, "rank", no_rank)
    homology_dims_by_level(c)
    assert reducers == [c.field] * len(c.degrees())
    graded = [col for n in c.degrees() for col in c._graded_columns(n)]
    assert reduced == [col for col in graded if col]
    assert 0 < len(reduced) < len(graded) == c.total_gens()


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32), size=st.integers(0, 30),
       field=st.sampled_from(corpus_fields()))
def test_graded_homology_by_level_matches_dense_block_ranks(seed, size, field):
    # d_n from the level-s generators to the level-s ones one degree below is
    # the level-s block of Gr C: its rows leave out every entry reaching lower
    def block_rank(c, n, s):
        rows = [g.gid for g in c.gens(n - 1) if g.filtration == s]
        cols = [dict(c.column(n, g.gid)) for g in c.gens(n) if g.filtration == s]
        return dense_rank([[col.get(r, field.zero) for col in cols] for r in rows], field)

    raw = random_complex(random.Random(seed), size, field)
    for c in (raw, raw.associated_graded()):
        gens = Counter((g.degree, g.filtration) for g in c.all_generators())
        assert homology_dims_by_level(c) == {
            (n, s): k - block_rank(c, n, s) - block_rank(c, n + 1, s)
            for (n, s), k in gens.items()}


def test_structural_errors():
    with pytest.raises(UsageError):
        FilteredChainComplex.from_named(Q, [("a", 0, 0), ("a", 1, 0)])
    with pytest.raises(UsageError):
        FilteredChainComplex.from_named(Q, [("a", 2, 0), ("b", 0, 0)],
                                        {"a": [(1, "b")]})
    with pytest.raises(UsageError):
        FilteredChainComplex.from_named(Q, [("a", 1, 0)], {"a": [(1, "zz")]})


@pytest.mark.parametrize("field", corpus_fields(), ids=str)
def test_a_stored_zero_coefficient_is_rejected_and_the_readers_drop_zeros(field):
    gens = {0: [Generator(0, 0, 0, "a"), Generator(1, 0, 0, "b")], 1: [Generator(0, 1, 1, "e")]}
    for zero in {0, field.zero}:  # over Q the int and the Fraction
        with pytest.raises(UsageError,
                           match=r"^degree 1: boundary row 0 stores a zero coefficient$"):
            FilteredChainComplex(field, gens, {1: [[(0, zero), (1, field.one)]]})
    named = FilteredChainComplex.from_named(
        field, [("a", 0, 0), ("b", 0, 0), ("e", 1, 1)], {"e": [(0, "a"), (1, "b")]})
    text = parse_complex("gen a 0 0\ngen b 0 0\ngen e 1 1\nbnd e 0 a 1 b\n", field)
    for c in (named, text):
        assert c.column(1, 0) == [(1, field.one)] and c.validate() == []


def composites_on_the_path_of_the_entries(c: FilteredChainComplex) -> list:
    """``(degree, gid)`` of each generator ``validate`` finds with d∘d ≠ 0 over
    Q, checked against the oracle, and whether it summed in the integer
    columns of ``integral``, checked to be exactly when an entry is fractional."""
    fractional = any(v.denominator != 1 for cols in c.boundary.values()
                     for col in cols for _, v in col)
    with counting_integral() as calls:
        found = [(v.degree, v.gid) for v in c.validate() if "d∘d" in v.reason]
    assert bool(calls) == fractional
    assert found == [(v.degree, v.gid) for v in violations_by_axpy(c) if "d∘d" in v.reason]
    return found, bool(calls)


def gf5_case(last: int) -> FilteredChainComplex:
    return FilteredChainComplex.from_named(
        Q, [("a", 0, 0), ("e1", 1, 0), ("e2", 1, 0), ("t", 2, 0)],
        {"e1": [(3, "a")], "e2": [(1, "a")], "t": [(2, "e1"), (last, "e2")]})


@pytest.mark.parametrize("make, broken", [
    (lambda: FilteredChainComplex.from_named(
        Q, [("a", 1, 0), ("b", 0, 1)], {"a": [(1, "b")]}), []),
    (lambda: FilteredChainComplex.from_named(
        Q, [("a", 2, 0), ("b", 1, 0), ("c", 0, 0)], {"a": [(1, "b")], "b": [(1, "c")]}),
     [(2, 0)]),
    # the GF(5) cases: over Q, 2*3 + last is never zero
    (lambda: gf5_case(4), [(2, 0)]),
    (lambda: gf5_case(3), [(2, 0)]),
    # 3 * 2 a vanishes mod 2 and mod 3, so the whole sum must reduce modulo nothing
    (lambda: FilteredChainComplex.from_named(
        Q, [("a", 0, 0), ("e", 1, 0), ("t", 2, 0)], {"e": [(2, "a")], "t": [(3, "e")]}),
     [(2, 0)]),
    (triangle, []),
    (full_triangle, []),
    (lambda: model_pair(Q), []),
], ids=["filtration", "dd", "gf5-case-4", "gf5-case-3", "six-a", "triangle", "full-triangle",
        "pair"])
def test_whole_composites_match_the_general_path_on_the_named_cases(make, broken):
    # from_named keeps whole coefficients whole, so validate sums numerators;
    # every case has an odd one, so its fractional basis takes the general path
    c = make()
    assert composites_on_the_path_of_the_entries(c) == (broken, False)
    assert composites_on_the_path_of_the_entries(fractional_basis(c)) == (broken, True)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 40))
def test_whole_composites_match_the_general_path(seed, size):
    # a random Q complex in a basis of whole coefficients, and a copy with one
    # coefficient moved by a whole amount: each sums numerators, each in a
    # fractional basis takes the general path, and all flag what the oracle does
    rng = random.Random(seed)
    c = whole_basis(random_complex(rng, size, Q))
    assert composites_on_the_path_of_the_entries(c) == ([], False)
    assert composites_on_the_path_of_the_entries(fractional_basis(c))[0] == []
    entries = [(n, j, k) for n in c.degrees() for j, col in enumerate(c.boundary[n])
               for k in range(len(col))]
    if not entries:
        return
    n, j, k = rng.choice(entries)
    boundary = {m: [list(col) for col in cols] for m, cols in c.boundary.items()}
    r, v = boundary[n][j][k]
    w = v + rng.choice([-6, -2, -1, 1, 2, 6])
    boundary[n][j][k:k + 1] = [] if w == 0 else [(r, w)]
    changed = FilteredChainComplex(Q, c.generators, boundary)
    broken, general = composites_on_the_path_of_the_entries(changed)
    assert not general
    assert composites_on_the_path_of_the_entries(fractional_basis(changed))[0] == broken


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 40))
def test_whole_composites_with_large_coefficients_match_the_oracle(seed, size):
    # each d_n of a whole Q complex times its own factor past 2**64 leaves
    # d∘d zero, with its entries a mix of ints and whole Fractions; a copy
    # with one entry moved by 1 breaks it; both sum numerators and flag what
    # the oracle does
    rng = random.Random(seed)
    c = whole_basis(random_complex(rng, size, Q))
    boundary = {n: [[(r, v * (3**41 + n)) for r, v in col] for col in cols]
                for n, cols in c.boundary.items()}
    for cols in boundary.values():
        for col in cols:
            col[:] = [(r, v.numerator if rng.random() < 0.5 else v) for r, v in col]
    big = FilteredChainComplex(Q, c.generators, boundary)
    assert composites_on_the_path_of_the_entries(big) == ([], False)
    entries = [(n, j, k) for n in big.degrees() for j, col in enumerate(big.boundary[n])
               for k in range(len(col))]
    if entries:
        n, j, k = rng.choice(entries)
        moved = {m: [list(col) for col in cols] for m, cols in boundary.items()}
        r, v = moved[n][j][k]
        moved[n][j][k] = (r, v + rng.choice([-1, 1]))
        assert not composites_on_the_path_of_the_entries(
            FilteredChainComplex(Q, c.generators, moved))[1]
