"""Model complexes and small readers shared across test modules."""
from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from math import lcm

import pytest

from spectra_persist import linalg
from spectra_persist.complexes import FilteredChainComplex
from spectra_persist.fields import PrimeField, RationalField
from spectra_persist.persistence import Barcode
from spectra_persist.spectral import PageTable

Q = RationalField()


def corpus_fields() -> list:
    """The coefficient fields exercised by the randomized test corpora."""
    return [PrimeField(2), PrimeField(5), PrimeField(32003), RationalField()]


def essential_count(b: Barcode, degree: int) -> int:
    """Essential bars of one degree, counted with multiplicity."""
    return sum(m for e, m in b.entries() if e.degree == degree and e.is_essential)


def traced(fn) -> tuple:
    """``fn()`` run under tracemalloc: its result, then the bytes still traced
    when it returns and the peak while it ran, both counted from its start."""
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def to_json_obj(table: PageTable) -> dict:
    """The JSON object ``pages --format json`` writes for one table."""
    return {"r_max": table.r_max, "dims": list(table.json_dims())}


def model_pair(field, n=0, s=2, m=3) -> FilteredChainComplex:
    """Two generators w -> v with a lifetime-m level gap (one finite bar)."""
    return FilteredChainComplex.from_named(
        field, [("v", n, s), ("w", n + 1, s + m)], {"w": [(1, "v")]})


def model_essential(field, n=0, s=0) -> FilteredChainComplex:
    """A single cycle generator (one infinite bar)."""
    return FilteredChainComplex.from_named(field, [("v", n, s)])


def triangle(field=Q) -> FilteredChainComplex:
    """Filtered triangle boundary: vertices at level 0, two edges at 1, one at 2."""
    return FilteredChainComplex.from_named(
        field,
        [("v0", 0, 0), ("v1", 0, 0), ("v2", 0, 0),
         ("e01", 1, 1), ("e12", 1, 1), ("e02", 1, 2)],
        {"e01": [(-1, "v0"), (1, "v1")],
         "e12": [(-1, "v1"), (1, "v2")],
         "e02": [(-1, "v0"), (1, "v2")]})


def full_triangle(field=Q) -> FilteredChainComplex:
    """Triangle boundary complex, all six cells at level 0."""
    return FilteredChainComplex.from_named(
        field,
        [("v0", 0, 0), ("v1", 0, 0), ("v2", 0, 0),
         ("e01", 1, 0), ("e12", 1, 0), ("e02", 1, 0)],
        {"e01": [(-1, "v0"), (1, "v1")],
         "e12": [(-1, "v1"), (1, "v2")],
         "e02": [(-1, "v0"), (1, "v2")]})


def whole_basis(c: FilteredChainComplex) -> FilteredChainComplex:
    """A Q complex written in a rescaled basis where every coefficient is whole.

    Degree by degree upwards, generator g becomes ``k_g g``, with ``k_g`` the
    lcm of ``k_r`` times the denominator of each entry ``(r, v)`` of its
    boundary, which then reads ``v k_g / k_r``.  A rescaled basis keeps every
    level and keeps d∘d = 0, so the result is isomorphic to ``c``.
    """
    scales: dict = {}
    boundary: dict = {}
    for n in c.degrees():
        below = scales.get(n - 1, [])
        scales[n], boundary[n] = [], []
        for col in c.boundary[n]:
            k = lcm(1, *[below[r] * v.denominator for r, v in col])
            scales[n].append(k)
            boundary[n].append([(r, v * k / below[r]) for r, v in col])
    return FilteredChainComplex(c.field, c.generators, boundary)


def fractional_basis(c: FilteredChainComplex) -> FilteredChainComplex:
    """A Q complex written in a basis that makes whole coefficients fractional,
    the other way from :func:`whole_basis`.

    Each generator of degree n becomes ``g / 2**n``, so every entry of d_n
    reads half of what it did: an odd whole coefficient becomes a fraction.
    A rescaled basis keeps every level, and d∘d only scales by 1/4, so the
    result flags the generators ``c`` does.
    """
    return FilteredChainComplex(c.field, c.generators, {
        n: [[(r, v / 2) for r, v in col] for col in cols] for n, cols in c.boundary.items()})


@contextmanager
def counting_integral():
    """The columns :func:`~spectra_persist.linalg.integral` is called on
    while the block runs; a call means Q was summed in its integer columns."""
    calls: list = []
    real = linalg.integral
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "integral", lambda col: calls.append(col) or real(col))
        yield calls
