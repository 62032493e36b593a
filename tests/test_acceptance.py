"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 2-5 share one seeded corpus of 1000 random complexes (sizes 5-50,
fields GF(2), GF(5), GF(32003), Q, filtration levels in [-3, 6]), with the
barcode and both page tables computed once per complex.
"""
from __future__ import annotations

import random
import time
from pathlib import Path

from spectra_persist.complexes import FilteredChainComplex, homology_dims_by_level
from spectra_persist.fields import RationalField
from spectra_persist.ingest import (parse_point_cloud, rips, simplicial_to_chain)
from spectra_persist.persistence import (INF, Barcode, BarEntry, betti,
                                         decompose, multiplicity)
from spectra_persist.randomgen import permute_generators, random_complex
from spectra_persist.spectral import (PageTable, pages_direct,
                                      pages_from_barcode, recover_barcode)

from helpers import corpus_fields, essential_count
from oracles import barcode_by_rank, persistent_betti

FIXTURES = Path(__file__).parent / "fixtures"

CORPUS_SIZE = 1000
CORPUS_SEED = 20240
_corpus_cache: dict = {}


def _report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def corpus():
    """(complex, barcode, direct table, barcode-engine table) per sample."""
    if "items" in _corpus_cache:
        return _corpus_cache["items"], _corpus_cache["build_seconds"]
    rng = random.Random(CORPUS_SEED)
    fields = corpus_fields()
    items = []
    t0 = time.perf_counter()
    for k in range(CORPUS_SIZE):
        c = random_complex(rng, rng.randint(5, 50), fields[k % len(fields)])
        r_max = c.filtration_span + 1
        _, b = decompose(c)
        items.append((c, b, pages_direct(c, r_max), pages_from_barcode(b, r_max)))
    elapsed = time.perf_counter() - t0
    _corpus_cache["items"] = items
    _corpus_cache["build_seconds"] = elapsed
    return items, elapsed


def _expected_model_table(n, s, m, r_max) -> PageTable:
    dims = {}
    if m == INF:
        for r in list(range(1, r_max + 1)) + [INF]:
            dims[(r, n, s)] = 1
    else:
        for r in range(1, min(m, r_max) + 1):
            dims[(r, n, s)] = 1
            dims[(r, n + 1, s + m)] = 1
    return PageTable(r_max, dims)


def test_criterion_1_model_complexes():
    field = RationalField()
    t0 = time.perf_counter()
    checked = 0
    for n in (-1, 0, 1, 2):
        for s in (-2, 0, 3):
            for m in (1, 2, 5, INF):
                if m == INF:
                    c = FilteredChainComplex.from_named(field, [("v", n, s)])
                    r_max = 4
                else:
                    c = FilteredChainComplex.from_named(
                        field, [("v", n, s), ("w", n + 1, s + m)],
                        {"w": [(1, "v")]})
                    r_max = m + 1
                _, b = decompose(c)
                assert b == Barcode({BarEntry(n, s, m): 1}), (n, s, m)
                expected = _expected_model_table(n, s, m, r_max)
                assert pages_from_barcode(b, r_max) == expected, (n, s, m)
                assert pages_direct(c, r_max) == expected, (n, s, m)
                checked += 1
    elapsed = time.perf_counter() - t0
    _report("criterion-1 model-complex golden tests",
            checked == 48 and elapsed < 1.0,
            f"{checked} models, {elapsed:.3f}s")


def test_criterion_2_dual_oracle_page_equality():
    items, build_seconds = corpus()
    bad = [k for k, (_, _, direct, from_bars) in enumerate(items)
           if direct != from_bars]
    _report("criterion-2 dual-oracle page equality",
            not bad and len(items) >= 1000 and build_seconds < 60.0,
            f"{len(items)} complexes, both engines in {build_seconds:.1f}s"
            + (f", first mismatch at sample {bad[0]}" if bad else ""))


def test_criterion_3_recovery_round_trip():
    items, _ = corpus()
    bad = []
    for k, (c, b, direct, _) in enumerate(items):
        s_min = c.min_level if c.degrees() else 0
        if recover_barcode(direct, s_min) != b:
            bad.append(k)
    _report("criterion-3 barcode recovery round-trip", not bad,
            f"{len(items)} complexes"
            + (f", first mismatch at sample {bad[0]}" if bad else ""))


def test_criterion_4_first_and_limit_page_identities():
    items, _ = corpus()
    bad = []
    for k, (c, _, direct, _) in enumerate(items):
        graded = homology_dims_by_level(c.associated_graded())
        keys = set(graded) | direct.support()
        if any(direct.dim(1, n, s) != graded.get((n, s), 0) for n, s in keys):
            bad.append((k, "page-1"))
            continue
        degrees = sorted(set(c.degrees()) | {n for n, _ in direct.support()})
        if any(direct.row_total(INF, n) != c.homology_dim(n) for n in degrees):
            bad.append((k, "limit-row"))
    _report("criterion-4 first/limit page identities", not bad,
            f"{len(items)} complexes"
            + (f", first failure {bad[0]}" if bad else ""))


def test_criterion_5_totalized_dimension_identity():
    items, _ = corpus()
    bad = []
    for k, (c, b, direct, _) in enumerate(items):
        if not c.degrees():
            continue
        top = c.max_level
        finite = [(e, mult) for e, mult in b.entries() if not e.is_essential]
        degrees = sorted(set(c.degrees()) | {n for n, _ in direct.support()})
        for n in degrees:
            essentials = betti(b, n, top, top)
            for r in range(1, direct.r_max + 1):
                rhs = essentials
                for e, _ in finite:
                    if e.lifetime >= r and e.degree in (n, n - 1):
                        rhs += multiplicity(b, e.degree, e.birth,
                                            e.birth + e.lifetime)
                if direct.row_total(r, n) != rhs:
                    bad.append((k, r, n))
        if bad:
            break
    _report("criterion-5 totalized dimension identity", not bad,
            f"{len(items)} complexes"
            + (f", first failure {bad[0]}" if bad else ""))


def test_criterion_6_barcode_uniqueness_under_permutation():
    rng = random.Random(CORPUS_SEED + 1)
    fields = corpus_fields()
    bad = []
    for k in range(100):
        c = random_complex(rng, rng.randint(5, 50), fields[k % len(fields)])
        _, base = decompose(c)
        for _ in range(10):
            _, again = decompose(permute_generators(rng, c))
            if again != base:
                bad.append(k)
                break
    _report("criterion-6 barcode uniqueness under permutation", not bad,
            "100 complexes x 10 permutations"
            + (f", first failure at sample {bad[0]}" if bad else ""))


def test_criterion_7_betti_against_rank_oracle():
    rng = random.Random(CORPUS_SEED + 2)
    fields = corpus_fields()
    bad = []
    pairs_checked = 0
    for k in range(100):
        c = random_complex(rng, rng.randint(5, 25), fields[k % len(fields)])
        if not c.degrees():
            continue
        _, b = decompose(c)
        lo, hi = c.min_level, c.max_level
        for n in c.degrees():
            for i in range(lo, hi + 1):
                for j in range(i, hi + 1):
                    pairs_checked += 1
                    if betti(b, n, i, j) != persistent_betti(c, n, i, j):
                        bad.append((k, n, i, j))
    _report("criterion-7 persistent Betti against rank oracle", not bad,
            f"100 complexes, {pairs_checked} (n,i,j) checks"
            + (f", first failure {bad[0]}" if bad else ""))


def test_criterion_8_rips_smoke():
    t0 = time.perf_counter()
    pc = parse_point_cloud((FIXTURES / "circle8.pts").read_text())
    fsc = rips(pc, max_dim=2, threshold=1.6)
    field = RationalField()
    c = simplicial_to_chain(fsc, field)
    _, b = decompose(c)
    oracle = barcode_by_rank(c)
    inf_deg0 = essential_count(b, 0)
    deg1_ours = {e: m for e, m in b.entries() if e.degree == 1}
    deg1_oracle = {e: m for e, m in oracle.entries() if e.degree == 1}
    elapsed = time.perf_counter() - t0
    ok = (inf_deg0 == 1 and deg1_ours == deg1_oracle and b == oracle
          and elapsed < 5.0)
    _report("criterion-8 rips circle smoke test", ok,
            f"one infinite component bar: {inf_deg0 == 1}, degree-1 matches "
            f"oracle: {deg1_ours == deg1_oracle}, {elapsed:.2f}s")
