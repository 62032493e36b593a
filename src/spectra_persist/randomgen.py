"""Seed-deterministic random filtered chain complexes.

Generators get random degrees and levels; each boundary column is sampled
from a filtration-adapted kernel basis of the boundary one degree below,
so d^2 = 0 and level compatibility hold by construction while the sampled
columns stay sparse.
"""
from __future__ import annotations

import random

from .complexes import FilteredChainComplex, Generator
from .fields import FieldSpec, PrimeField, Scalar
from .linalg import SparseMatrix, axpy, kernel

DEGREES = (-1, 3)          # inclusive range of generator degrees
LEVELS = (-3, 6)           # inclusive range of filtration levels
ZERO_COLUMN_CHANCE = 0.35  # share of boundary columns left empty


def random_nonzero_scalar(rng: random.Random, field: FieldSpec) -> Scalar:
    if isinstance(field, PrimeField):
        return rng.randrange(1, field.p)
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    return type(field.one)(num, rng.randint(1, 3))  # Q's one is a Fraction


def random_complex(rng: random.Random, n_gens: int, field: FieldSpec) -> FilteredChainComplex:
    by_degree: dict[int, list[Generator]] = {}
    for _ in range(n_gens):
        degree = rng.randint(*DEGREES)
        level = rng.randint(*LEVELS)
        gens = by_degree.setdefault(degree, [])
        gens.append(Generator(len(gens), degree, level))

    boundary: dict[int, list[list]] = {}
    # kernel vectors of the boundary one degree below, as (level, column)
    cycles_below: list[tuple[int, list]] = []
    for n in sorted(by_degree):
        gens = by_degree[n]
        cols: list[list] = []
        if n - 1 not in by_degree:
            cycles_below = []
            cols = [[] for _ in gens]
        else:
            # the cycles at or below each level, in kernel order, listed once
            eligible_at = {s: [col for lvl, col in cycles_below if lvl <= s]
                           for s in {g.filtration for g in gens}}
            for g in gens:
                eligible = eligible_at[g.filtration]
                col: list = []
                if eligible and rng.random() > ZERO_COLUMN_CHANCE:
                    picks = rng.sample(eligible, rng.randint(1, min(3, len(eligible))))
                    for vec in picks:
                        col = axpy(field, col, random_nonzero_scalar(rng, field), vec)
                cols.append(col)
        boundary[n] = cols

        # filtration-adapted kernel of the new boundary map, for the next degree
        order = sorted(range(len(gens)), key=lambda i: (gens[i].filtration, i))
        matrix = SparseMatrix(len(by_degree.get(n - 1, ())), [cols[i] for i in order])
        cycles_below = []
        for combo in kernel(matrix, field).columns:
            vec = sorted((order[j], v) for j, v in combo)
            level = max(gens[r].filtration for r, _ in vec)
            cycles_below.append((level, vec))

    return FilteredChainComplex(field, by_degree, boundary)


def permute_generators(rng: random.Random, c: FilteredChainComplex) -> FilteredChainComplex:
    """Relabel generator ids uniformly at random within each degree."""
    new_gid: dict[int, list[int]] = {}
    new_gens: dict[int, list[Generator]] = {}
    for n in c.degrees():
        gens = c.gens(n)
        perm = list(range(len(gens)))
        rng.shuffle(perm)
        new_gid[n] = perm
        placed: list = [None] * len(gens)
        for g in gens:
            placed[perm[g.gid]] = Generator(perm[g.gid], n, g.filtration, g.name)
        new_gens[n] = placed
    new_boundary: dict[int, list[list]] = {}
    for n in c.degrees():
        remap = new_gid.get(n - 1, [])
        cols: list = [None] * c.n_gens(n)
        for g in c.gens(n):
            cols[new_gid[n][g.gid]] = sorted(
                (remap[r], v) for r, v in c.column(n, g.gid))
        new_boundary[n] = cols
    return FilteredChainComplex(c.field, new_gens, new_boundary)
