import math
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spectra_persist.errors import ParseError, UsageError
from spectra_persist.fields import PrimeField, RationalField
from spectra_persist.ingest import (PointCloud, make_simplicial, parse_complex,
                                    parse_point_cloud, parse_simplicial, rips,
                                    serialize_complex, simplicial_to_chain)
from spectra_persist.persistence import INF, Barcode, BarEntry, decompose
from spectra_persist.randomgen import corpus_fields, random_complex
from spectra_persist.spectral import pages_direct

from oracles import barcode_by_rank, simplicial_to_chain_by_entries

FIXTURES = Path(__file__).parent / "fixtures"
Q = RationalField()
GF2 = PrimeField(2)


def test_parse_model_fixture():
    c = parse_complex((FIXTURES / "u_0_2_3.fcc").read_text(), GF2)
    assert c.total_gens() == 2
    _, b = decompose(c)
    assert b == Barcode({BarEntry(0, 2, 3): 1})


def test_parse_empty_file():
    c = parse_complex("", Q)
    assert c.total_gens() == 0


def test_parse_unknown_generator_names_line():
    text = "gen a 1 0\nbnd a 1 nonexistent\n"
    with pytest.raises(ParseError) as err:
        parse_complex(text, Q)
    assert err.value.line_no == 2


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_complex("gen a 0 0\ngen a 0 1\n", Q)
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        parse_complex("gen a 0 zero\n", Q)
    assert err.value.line_no == 1


def test_parse_rejects_cross_degree_boundary():
    text = "gen a 2 0\ngen b 0 0\nbnd a 1 b\n"
    with pytest.raises(ParseError):
        parse_complex(text, Q)


def test_boundary_lines_accumulate():
    text = "gen a 1 1\ngen b 0 0\ngen c 0 0\nbnd a 1 b\nbnd a 2/1 c -1 b\n"
    c = parse_complex(text, Q)
    assert c.column(1, 0) == [(1, Q.normalize(2))]  # b cancels to zero


@pytest.mark.parametrize("field, good, bad, message", [
    (Q, ("1", "-1", "2/3"), "1/0", "'1/0' is not a rational scalar"),
    (PrimeField(5), ("1", "4", "-1"), "1_0", "'1_0' is not a GF(5) scalar"),
])
def test_bad_coefficient_names_its_line_after_good_repeats(field, good, bad, message):
    gens = "gen a 0 0\ngen b 0 0\n" + "".join(f"gen e{k} 1 0\n" for k in range(5))
    lines = [f"bnd e{k} {good[k % len(good)]} a {good[(k + 1) % len(good)]} b"
             for k in range(4)]
    lines.append(f"bnd e4 {good[0]} a {bad} b")
    text = gens + "\n".join(lines) + "\n" + f"bnd e0 {bad} a\n"
    with pytest.raises(ParseError) as err:
        parse_complex(text, field)
    assert err.value.line_no == 7 + 5 and str(err.value) == f"line 12: {message}"


def test_serialize_parse_round_trip():
    rng = random.Random(31)
    for trial in range(20):
        field = corpus_fields()[trial % 4]
        c = random_complex(rng, rng.randint(0, 25), field)
        text = serialize_complex(c)
        again = parse_complex(text, field)
        assert serialize_complex(again) == text  # byte-exact once canonical
        assert decompose(again)[1] == decompose(c)[1]


def test_field_line_is_written_once_and_checked_on_parse():
    gf3, gf5 = PrimeField(3), PrimeField(5)
    c = parse_complex("gen a 0 0\ngen b 1 1\nbnd b 1 a\n", gf3)
    text = serialize_complex(c, ["a comment"])
    assert [l for l in text.splitlines() if l.startswith("field")] == ["field 3"]
    assert text.splitlines()[:2] == ["# a comment", "field 3"]
    assert serialize_complex(parse_complex(text, gf3)) == serialize_complex(c)
    assert "field q\n" in serialize_complex(parse_complex(text.replace("field 3", "field q"), Q))
    with pytest.raises(ParseError,
                       match=r"^line 2: complex is written over GF\(3\), not the requested GF\(5\)$"):
        parse_complex(text, gf5)
    with pytest.raises(ParseError, match=r"^line 2: .* over Q, not the requested GF\(3\)$"):
        parse_complex(text.replace("field 3", "field q"), gf3)
    # the same field twice, or another one second, is not a file serialize_complex writes
    for second in ("field 3", "field 5", "field q"):
        with pytest.raises(ParseError, match=r"^line 3: second field line names .* "
                                             r"the first named GF\(3\)$"):
            parse_complex(text.replace("field 3", "field 3\n" + second), gf3)
    with pytest.raises(ParseError, match=r"over GF\(2305843009213693951\), not"):
        parse_complex(text.replace("field 3", "field 2305843009213693951"), gf3)
    for bad in ("field", "field 3 3", "field 4", "field x", "field 3.0", f"field {10**40}"):
        with pytest.raises(ParseError, match="^line 2: "):
            parse_complex(text.replace("field 3", bad), gf3)
    # a file without the line parses as before, whatever the field
    plain = "gen a 0 0\ngen b 1 1\nbnd b 2 a\n"
    assert parse_complex(plain, gf5).column(1, 0) == [(0, 2)]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 25),
       field=st.sampled_from([PrimeField(2), PrimeField(5), Q]))
def test_serialized_complex_keeps_field_barcode_and_pages(seed, size, field):
    c = random_complex(random.Random(seed), size, field)
    text = serialize_complex(c)
    assert [l for l in text.splitlines() if l.startswith("field")] == [f"field {field.token()}"]
    again = parse_complex(text, field)
    assert serialize_complex(again) == text
    assert decompose(again)[1] == decompose(c)[1]
    r_max = c.filtration_span + 1 if c.degrees() else 1
    assert pages_direct(again, r_max) == pages_direct(c, r_max)


def test_simplicial_single_vertex():
    fsc = parse_simplicial("simp 0.0 7\n")
    c = simplicial_to_chain(fsc, Q)
    assert c.total_gens() == 1
    assert c.gens(0)[0].filtration == 0


def test_simplicial_edge_with_auto_vertices():
    fsc = parse_simplicial("simp 1.0 0 1\n")
    assert ((0,), 1.0) in fsc.simplices and ((1,), 1.0) in fsc.simplices
    c = simplicial_to_chain(fsc, Q)
    edge = c.gens(1)[0]
    assert edge.filtration == 0  # only one distinct value
    assert c.column(1, 0) == [(0, Q.normalize(-1)), (1, Q.normalize(1))]


def test_simplicial_edge_standard_sign():
    text = "simp 0.0 0\nsimp 0.0 1\nsimp 1.0 0 1\n"
    c = simplicial_to_chain(parse_simplicial(text), Q)
    assert [g.filtration for g in c.gens(0)] == [0, 0]
    assert c.gens(1)[0].filtration == 1
    # d[v0,v1] = v1 - v0
    assert c.column(1, 0) == [(0, Q.normalize(-1)), (1, Q.normalize(1))]


def test_simplicial_missing_face_is_closure_error():
    with pytest.raises(ParseError):
        parse_simplicial("simp 0.0 0\nsimp 0.0 1\nsimp 0.0 2\nsimp 1.0 0 1 2\n")


def test_simplicial_face_after_coface_rejected():
    entries = [((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)]
    make_simplicial(entries)
    with pytest.raises(UsageError):
        make_simplicial([((0,), 0.0), ((1,), 2.0), ((0, 1), 1.0)])


def test_triangle_with_face_has_dsq_zero():
    text = ("simp 0 0\nsimp 0 1\nsimp 0 2\n"
            "simp 1 0 1\nsimp 1 0 2\nsimp 1 1 2\nsimp 2 0 1 2\n")
    c = simplicial_to_chain(parse_simplicial(text), Q)
    assert c.validate() == []
    assert c.homology_dim(1) == 0


def random_simplicial_text(rng: random.Random) -> str:
    """simp lines of a random face-closed complex, vertices sometimes left implicit."""
    values = {}
    for _ in range(rng.randint(1, 8)):
        top = tuple(sorted(rng.sample(range(7), rng.randint(1, 4))))
        for k in range(1, len(top) + 1):
            for face in combinations(top, k):
                values.setdefault(face, rng.choice([0.0, 0.5, 1.0, 2.5]))
    for verts in sorted(values, key=len):  # no face after its cofaces
        for face in combinations(verts, len(verts) - 1):
            values[verts] = max(values[verts], values.get(face, 0.0))
    lines = [f"simp {value} {' '.join(map(str, verts))}" for verts, value in values.items()
             if len(verts) > 1 or rng.random() < 0.5]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), source=st.sampled_from(["rips", "simp"]),
       field=st.sampled_from([GF2, PrimeField(3), Q]))
def test_simplicial_to_chain_matches_the_entry_oracle(seed, source, field):
    rng = random.Random(seed)
    if source == "rips":
        pts = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(rng.randint(1, 9))]
        fsc = rips(PointCloud.from_points(pts), max_dim=rng.randint(0, 3),
                   threshold=rng.choice([None, 0.8, 1.5]))
    else:
        fsc = parse_simplicial(random_simplicial_text(rng))
    c = simplicial_to_chain(fsc, field)
    expected = simplicial_to_chain_by_entries(fsc, field)
    assert c.generators == expected.generators
    assert c.boundary == expected.boundary
    assert c.validate() == []


def test_rips_two_points():
    pc = parse_point_cloud((FIXTURES / "two_points.pts").read_text())
    fsc = rips(pc, max_dim=1, threshold=2.0)
    assert len(fsc.simplices) == 3
    values = sorted(v for _, v in fsc.simplices)
    assert values == [0.0, 0.0, 1.0]


def test_rips_collinear_diameter_rule():
    pc = PointCloud.from_points([(0.0,), (1.0,), (2.0,)])
    fsc = rips(pc, max_dim=2, threshold=1.5)
    dims = sorted(len(v) - 1 for v, _ in fsc.simplices)
    assert dims == [0, 0, 0, 1, 1]  # no triangle: diameter 2 > 1.5


def test_rips_no_threshold_enumerates_everything():
    pc = PointCloud.from_points([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    fsc = rips(pc, max_dim=2, threshold=None)
    assert len(fsc.simplices) == 7


def test_rips_equilateral_triangle_barcode():
    # all three edges and the 2-cell share one diameter, so the loop is
    # born and filled at the same level: the degree-1 barcode is empty and
    # two components die entering level 1 (frozen from the rank oracle)
    pc = PointCloud.from_points([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)])
    fsc = rips(pc, max_dim=2, threshold=2.0)
    assert len(fsc.levels) == 2
    c = simplicial_to_chain(fsc, Q)
    _, b = decompose(c)
    expected = Barcode({BarEntry(0, 0, INF): 1, BarEntry(0, 0, 1): 2})
    assert b == expected
    assert barcode_by_rank(c) == expected


def test_rips_distance_matrix_input():
    pc = parse_point_cloud((FIXTURES / "d3.txt").read_text())
    assert len(pc) == 3
    assert pc.distance(0, 2) == 2.0
    fsc = rips(pc, max_dim=2, threshold=1.5)
    assert sorted(len(v) - 1 for v, _ in fsc.simplices) == [0, 0, 0, 1, 1]


def test_rips_face_closure_and_monotone_values():
    rng = random.Random(33)
    for _ in range(10):
        pts = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(rng.randint(2, 7))]
        fsc = rips(PointCloud.from_points(pts), max_dim=3,
                   threshold=rng.choice([None, 1.0, 2.0]))
        table = dict(fsc.simplices)
        for verts, value in fsc.simplices:
            if len(verts) == 1:
                assert value == 0.0
                continue
            for k in range(len(verts)):
                face = verts[:k] + verts[k + 1:]
                assert face in table
                assert table[face] <= value
        assert list(fsc.levels) == sorted(set(table.values()))


def test_point_cloud_validation():
    with pytest.raises(UsageError):
        PointCloud.from_distances([[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(UsageError):
        PointCloud.from_distances([[1]])  # nonzero diagonal
    with pytest.raises(UsageError):
        PointCloud.from_points([(0, 0), (1,)])  # ragged
    with pytest.raises(ParseError):
        parse_point_cloud("dist 2\n0 1\n")  # short matrix
    with pytest.raises(ParseError):
        parse_point_cloud("")


@pytest.mark.parametrize("text, message", [
    ("dist 2\n0 1\n1 0\ndist 2\n", "line 4: second dist header"),
    ("dist 2\n0 1\ndist 1\n1 0\n", "line 3: second dist header"),
    ("pt 0 0\npt 5 5\ndist 2\n0 1\n1 0\n", "line 3: cannot mix pt lines with a dist matrix"),
])
def test_point_cloud_takes_one_dist_header_and_no_points_with_it(text, message):
    with pytest.raises(ParseError) as err:
        parse_point_cloud(text)
    assert str(err.value) == message
