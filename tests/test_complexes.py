import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spectra_persist.complexes import FilteredChainComplex, homology_dims_by_level
from spectra_persist.errors import InvalidComplexError, UsageError
from spectra_persist.fields import PrimeField, RationalField
from spectra_persist.randomgen import permute_generators, random_complex, random_nonzero_scalar

from helpers import full_triangle, model_pair, triangle
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


def test_graded_homology_by_level_requires_graded():
    with pytest.raises(UsageError):
        homology_dims_by_level(model_pair(Q, 0, 2, 3))


def test_graded_homology_by_level_blocks():
    c = triangle()
    dims = homology_dims_by_level(c.associated_graded())
    assert dims[(0, 0)] == 3
    assert dims[(1, 1)] == 2
    assert dims[(1, 2)] == 1


def test_structural_errors():
    with pytest.raises(UsageError):
        FilteredChainComplex.from_named(Q, [("a", 0, 0), ("a", 1, 0)])
    with pytest.raises(UsageError):
        FilteredChainComplex.from_named(Q, [("a", 2, 0), ("b", 0, 0)],
                                        {"a": [(1, "b")]})
    with pytest.raises(UsageError):
        FilteredChainComplex.from_named(Q, [("a", 1, 0)], {"a": [(1, "zz")]})
