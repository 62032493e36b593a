import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spectra_persist import cli, ingest
from spectra_persist.complexes import FilteredChainComplex, Generator
from spectra_persist.errors import ClosureError, InvalidComplexError, ParseError, UsageError
from spectra_persist.fields import PrimeField, RationalField, parse_int
from spectra_persist.ingest import parse_complex, serialize_complex
from spectra_persist.simplicial import (PointCloud, make_simplicial, parse_point_cloud,
                                        parse_simplicial, rips, serialize_simplicial,
                                        simplicial_to_chain)
from spectra_persist.linalg import kernel
from spectra_persist.persistence import INF, Barcode, BarEntry, decompose
from spectra_persist.randomgen import random_complex
from spectra_persist.spectral import pages_direct

from helpers import corpus_fields, counting_integral, traced, whole_basis
from oracles import (barcode_by_rank, column_by_sum, make_simplicial_by_lookup,
                     rips_by_cliques, serialize_simplicial_by_lookup,
                     simplicial_to_chain_by_entries)

FIXTURES = Path(__file__).parent / "fixtures"
Q = RationalField()
GF2 = PrimeField(2)


def cloud_40() -> list:
    """40 random points of the unit square, whose Rips complex to dimension 2
    has 10,700 simplices and about 630 KB of chain-complex text."""
    rng = random.Random(40)
    return [(rng.random(), rng.random()) for _ in range(40)]


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


@pytest.mark.parametrize("bad", ["zero", "1_0", "\u0663"])
def test_a_bad_integer_is_reported_at_its_first_line_once_cached_or_repeated(bad):
    # good tokens are read from the cache, a bad one is never cached
    text = f"gen a 0 1\ngen b 1 0\ngen c 0 {bad}\ngen d {bad} 1\ngen e 1 {bad}\n"
    with pytest.raises(ParseError) as err:
        parse_complex(text, Q)
    assert str(err.value) == "line 3: degree and filtration must be integers"
    with pytest.raises(ParseError) as err:
        parse_complex(f"gen a 0 1\ngen b {bad} 1\ngen c {bad} 0\n", Q)
    assert str(err.value) == "line 2: degree and filtration must be integers"


def test_parse_complex_parses_each_integer_token_once(monkeypatch):
    parsed = Counter()

    def counting_parse_int(token):
        parsed[token] += 1
        return parse_int(token)

    monkeypatch.setattr(ingest, "parse_int", counting_parse_int)
    c = parse_complex("gen a 0 0\ngen b 0 1\ngen c 1 1\ngen d 1 0\nbnd d 1 a\n", Q)
    assert [(g.degree, g.filtration) for g in c.all_generators()] == [(0, 0), (0, 1), (1, 1), (1, 0)]
    assert parsed == Counter({"0": 1, "1": 1})


@pytest.mark.parametrize("bad", [
    "gen a 0 1",                # duplicate generator
    "gen c 0",                  # gen arity
    "gen c 0 x",                # gen integer
    "field 3",                  # field mismatch
    "cell c 0 0",               # unknown directive
])
def test_gen_and_field_errors_come_before_an_earlier_bad_bnd_line(bad):
    # the first pass reads every gen and field line before any bnd line is parsed
    text = f"field 2\ngen a 0 0\nbnd a 1 nowhere\nbnd b\n{bad}\nbnd a 7 a\n"
    with pytest.raises(ParseError) as err:
        parse_complex(text, GF2)
    assert err.value.line_no == 5
    with pytest.raises(ParseError) as err:
        parse_complex(text.replace(bad, "gen c 0 0"), GF2)
    assert err.value.line_no == 3


@pytest.mark.parametrize("lines, column", [
    (["bnd x 1 a 2 b"], [(0, 1), (1, 2)]),
    (["bnd x 2 b 1 a"], [(0, 1), (1, 2)]),
    (["bnd x 0 a 1 b"], [(1, 1)]),                           # a zero, no repeat
    (["bnd x 1 a 0 b"], [(0, 1)]),
    (["bnd x 5 a 2 c 3 c", "bnd x 1 d 4 d 4 d"], [(3, 4)]),   # sums to zero, repeats
    (["bnd x 2 d 3 d", "bnd x 1 a"], [(0, 1)]),
    (["bnd x 1 b 1 b 1 b", "bnd x 3 a 2 a"], [(1, 3)]),
    (["bnd x 0 a", "bnd x 0 b 5 c"], []),
])
def test_the_reader_sums_repeated_rows_and_drops_zeros(lines, column):
    # over GF(5), degree 0 gens a, b, c, d; x has degree 1
    text = "".join(f"gen {g} 0 0\n" for g in "abcd") + "gen x 1 0\n" + "\n".join(lines)
    c = parse_complex(text, PrimeField(5))
    assert c.column(1, 0) == column
    assert c.column(1, 0) == FilteredChainComplex(c.field, c.generators, c.boundary).column(1, 0)


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


def by_name(c: FilteredChainComplex) -> dict:
    """Each generator's degree, level and boundary, keyed by its label."""
    out = {}
    for g in c.all_generators():
        below = c.gens(g.degree - 1)
        out[g.label()] = (g.degree, g.filtration, sorted(
            (below[r].label(), c.field.format(v)) for r, v in c.column(g.degree, g.gid)))
    return out


def shuffled_lines(rng: random.Random, text: str) -> list:
    """The lines of a complex's text in a random order, the field line first;
    about half the bnd lines of two or more entries are split in two."""
    head, *body = text.splitlines()
    lines = []
    for line in body:
        toks = line.split()
        if toks[0] == "bnd" and len(toks) > 4 and rng.random() < 0.5:
            k = 2 + 2 * rng.randrange(1, (len(toks) - 2) // 2)
            lines += [" ".join(toks[:k]), " ".join(toks[:2] + toks[k:])]
        else:
            lines.append(line)
    rng.shuffle(lines)
    return [head, *lines]


def test_bnd_lines_before_their_gen_lines_give_the_same_complex():
    # a bnd line whose source or target is not yet defined waits for the
    # second pass; the columns come out as from the text in written order
    rng = random.Random(53)
    early = 0
    for trial in range(40):
        field = corpus_fields()[trial % 4]
        c = random_complex(rng, rng.randint(1, 30), field)
        lines = shuffled_lines(rng, serialize_complex(c))
        defined: set = set()
        for line in lines:
            toks = line.split()
            if toks[0] == "gen":
                defined.add(toks[1])
            elif toks[0] == "bnd":
                early += not defined.issuperset([toks[1], *toks[3::2]])
        assert by_name(parse_complex("\n".join(lines) + "\n", field)) == by_name(c), trial
    assert early > 100


@pytest.mark.parametrize("field", corpus_fields(), ids=str)
def test_bnd_errors_are_raised_at_their_line_whichever_pass_reads_it(field):
    # two bnd lines of a shuffled text are broken: the earlier one's error is
    # raised, whether its line was read before or after its gen lines, and a
    # gen error after both comes first
    rng = random.Random(str(field))
    with pytest.raises(UsageError) as bad_coeff:
        field.parse("x")

    def unknown_target(toks):
        return toks[:3] + ["nowhere"] + toks[4:], "boundary references unknown generator 'nowhere'"

    def unknown_source(toks):
        return toks[:1] + ["nowhere"] + toks[2:], "boundary for unknown generator 'nowhere'"

    def bad_coefficient(toks):
        return toks[:2] + ["x"] + toks[3:], str(bad_coeff.value)

    def no_target(toks):
        return toks[:2], "expected 'bnd <source> <coeff> <target> [<coeff> <target> ...]'"

    def itself(toks):
        n = degree[toks[1]]
        return toks[:3] + toks[1:2] + toks[4:], (
            f"boundary of {toks[1]!r} (degree {n}) cannot hit {toks[1]!r} (degree {n})")

    breaks = [unknown_target, unknown_source, bad_coefficient, no_target, itself]
    checked = 0
    for trial in range(40):
        c = random_complex(rng, rng.randint(3, 30), field)
        degree = {g.label(): g.degree for g in c.all_generators()}
        lines = shuffled_lines(rng, serialize_complex(c))
        bnds = [i for i, line in enumerate(lines) if line.startswith("bnd")]
        if len(bnds) < 2:
            continue
        messages = {}
        for i in rng.sample(bnds, 2):
            toks, messages[i] = rng.choice(breaks)(lines[i].split())
            lines[i] = " ".join(toks)
        first = min(messages)
        with pytest.raises(ParseError) as err:
            parse_complex("\n".join(lines) + "\n", field)
        assert str(err.value) == f"line {first + 1}: {messages[first]}", trial
        lines.append(next(line for line in lines if line.startswith("gen")))
        with pytest.raises(ParseError) as err:
            parse_complex("\n".join(lines) + "\n", field)
        assert err.value.line_no == len(lines) and "duplicate generator" in str(err.value)
        checked += 1
    assert checked > 20


def test_a_source_split_across_a_deferred_and_a_placed_line():
    # e's first bnd line comes before e's gen line and waits for the second
    # pass; its second comes after and is placed in the first: the column and
    # the errors are those of the text with every gen line first
    gf5 = PrimeField(5)
    deferred_first = "gen a 0 0\nbnd e 1 a 2 b\ngen b 0 0\ngen e 1 1\nbnd e 1 b 4 a\n"
    gens_first = "gen a 0 0\ngen b 0 0\ngen e 1 1\nbnd e 1 a 2 b\nbnd e 1 b 4 a\n"
    for text in (deferred_first, gens_first):
        assert parse_complex(text, gf5).column(1, 0) == [(1, 3)]  # a: 1 + 4 = 0
        assert parse_complex(text, PrimeField(3)).column(1, 0) == [(0, 2)]  # b: 2 + 1 = 0
    for bad, message in [("zz", "boundary references unknown generator 'zz'"),
                         ("a 7", "expected 'bnd <source> <coeff> <target> [<coeff> <target> ...]'")]:
        text = deferred_first.replace("2 b", f"2 {bad}")
        with pytest.raises(ParseError) as err:
            parse_complex(text, gf5)
        assert str(err.value) == f"line 2: {message}"
    with pytest.raises(ParseError) as err:
        parse_complex(deferred_first.replace("2 b", "x b"), gf5)
    assert str(err.value) == "line 2: 'x' is not a GF(5) scalar"


def test_columns_share_each_boundary_entry_and_only_that():
    # over GF(5): e and f have one boundary, so their columns hold the same
    # two tuples; t and u share theirs; g's entries equal t's in value but
    # sit one degree lower, and a's coefficient differs between e and g
    text = ("gen a 0 0\ngen b 0 0\ngen e 1 1\ngen f 1 1\ngen g 1 1\ngen t 2 2\ngen u 2 2\n"
            "bnd e 4 a 1 b\nbnd f 4 a\nbnd f 1 b\nbnd g 1 a 4 b\n"
            "bnd t 1 e 4 f\nbnd u 4 f 1 e\n")
    c = parse_complex(text, PrimeField(5))
    (e, f, g), (t, u) = c.boundary[1], c.boundary[2]
    assert e == f == [(0, 4), (1, 1)] and g == t == u == [(0, 1), (1, 4)]
    assert e is not f and t is not u  # separate lists
    assert all(x is y for x, y in zip(e, f)) and all(x is y for x, y in zip(t, u))
    assert not any(x is y for x, y in zip(g, t))  # equal, but one degree apart
    assert g[0] is not e[0] and g[1] is not e[1]  # one row, another coefficient


@pytest.mark.parametrize("field", [PrimeField(32003), Q], ids=str)
def test_the_entry_cache_grows_with_the_entries_not_tokens_times_targets(field):
    # a cycle of 2,000 edges, every coefficient token distinct and the gen
    # lines first, as serialize_complex writes them: the reader's transient
    # grows with the text (about 12 times it here, one small dict per token;
    # about 500 times it when each token kept a list over every target of
    # its degree)
    n = 2000
    coeff = (lambda k: str(k)) if isinstance(field, PrimeField) else (lambda k: f"1/{k}")
    text = ("".join(f"gen v{i} 0 0\n" for i in range(n))
            + "".join(f"gen e{i} 1 1\n" for i in range(n))
            + "".join(f"bnd e{i} {coeff(2 * i + 1)} v{i} {coeff(2 * i + 2)} v{(i + 1) % n}\n"
                      for i in range(n)))
    c, kept, peak = traced(lambda: parse_complex(text, field))
    assert c.column(1, 0) == [(0, field.parse(coeff(1))), (1, field.parse(coeff(2)))]
    assert peak - kept < 16 * len(text)


@pytest.mark.parametrize("field", [GF2, Q])
def test_parse_complex_holds_little_beyond_the_complex_it_returns(field):
    # no token list per bnd line and no dict per column is kept, and each line
    # is freed once read: the peak over what the complex retains stays under
    # the text's length (0.6-0.75 times it, one 64 KiB chunk's lines and the
    # name dict; 3.2 times it when the split lines were kept through the
    # first pass and the bnd lines through the second, 13.7 times it when
    # each line's tokens were kept until the second pass)
    pc = PointCloud.from_points(cloud_40())
    text = serialize_simplicial(rips(pc, 2), field)
    c, kept, peak = traced(lambda: parse_complex(text, field))
    assert [c.n_gens(n) for n in c.degrees()] == [40, 780, 9880]
    assert peak - kept < len(text)


class _Sink:
    """A stdout that counts what is written to it and keeps none of it."""
    size = writes = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        self.writes += 1
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("field", ["2", "q"])
def test_rips_writes_its_text_holding_little_beyond_the_complex(tmp_path, monkeypatch, field):
    # the rips command writes its lines in batches as they are made: its peak
    # over that of rips() alone stays under the text's length (0.45 times it;
    # 3.2 times it when the text was made, and encoded, whole)
    path = tmp_path / "cloud.pts"
    path.write_text("".join(f"pt {x!r} {y!r}\n" for x, y in cloud_40()))
    pc = parse_point_cloud(path.read_text())
    fsc, _, alone = traced(lambda: rips(pc, 2))
    assert len(fsc.simplices) == 10700
    del fsc
    sink = _Sink()
    monkeypatch.setattr("sys.stdout", sink)
    code, _, peak = traced(lambda: cli.main(["rips", str(path), "--max-dim", "2", "--field", field]))
    assert code == 0 and sink.size > 600_000 and sink.writes > 2
    assert peak - alone < sink.size


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


@pytest.mark.parametrize("gens", [
    [Generator(0, 0, 0, "a#b")], [Generator(0, 0, 0, "a b")], [Generator(0, 0, 0, "")],
    [Generator(0, 0, 0, "a\nb")], [Generator(0, 0, 0, "a\u2028b")],
    [Generator(0, 0, 0, "x"), Generator(1, 0, 0, "x")],
    # a name equal to the default label of an unnamed generator
    [Generator(0, 0, 0, "g0_1"), Generator(1, 0, 0)],
], ids=["hash", "blank", "empty", "newline", "line-separator", "repeat", "default-label"])
def test_serialize_complex_refuses_labels_the_reader_cannot_read_back(gens):
    c = FilteredChainComplex(Q, {0: gens}, {0: [[] for _ in gens]})
    label = gens[-1].label()
    with pytest.raises(UsageError) as err:
        serialize_complex(c)
    assert str(err.value) == f"cannot write label {label!r}: not a unique token free of #"
    # each is a label the reader refuses or reads as another
    with pytest.raises(ParseError):
        parse_complex("\n".join(f"gen {g.label()} 0 0" for g in gens), Q)


def test_serialize_complex_refuses_comments_with_line_breaks_and_quotes_labels_short():
    c = FilteredChainComplex.from_named(Q, [("a", 0, 0)])
    for comment in ("two\nlines", "two\rlines", "two\r\nlines"):
        with pytest.raises(UsageError, match=r"^cannot write comment .*: it holds a line break$"):
            serialize_complex(c, ["fine", comment])
    text = serialize_complex(c, ["tab\tand # and \u2028 stay"])
    assert text.startswith("# tab\tand") and serialize_complex(parse_complex(text, Q)) == (
        serialize_complex(c))
    long = FilteredChainComplex.from_named(Q, [("x" * 100 + " y", 0, 0)])
    with pytest.raises(UsageError) as err:
        serialize_complex(long)
    assert str(err.value) == (f"cannot write label {'x' * 40 + '… (102 characters)'!r}: "
                              "not a unique token free of #")


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


def random_simplicial(rng: random.Random, source: str):
    """A Rips complex of a random planar cloud, or a random ``simp`` file's complex."""
    if source == "rips":
        pts = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(rng.randint(1, 9))]
        return rips(PointCloud.from_points(pts), max_dim=rng.randint(0, 3),
                    threshold=rng.choice([None, 0.8, 1.5]))
    return parse_simplicial(random_simplicial_text(rng))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), source=st.sampled_from(["rips", "simp"]),
       field=st.sampled_from([GF2, PrimeField(3), Q]))
def test_simplicial_to_chain_matches_the_entry_oracle(seed, source, field):
    fsc = random_simplicial(random.Random(seed), source)
    c = simplicial_to_chain(fsc, field)
    expected = simplicial_to_chain_by_entries(fsc, field)
    assert c.generators == expected.generators
    assert c.boundary == expected.boundary
    assert c.validate() == []


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), source=st.sampled_from(["rips", "simp"]),
       field=st.sampled_from([GF2, PrimeField(3), PrimeField(5), PrimeField(32003), Q]))
def test_serialize_simplicial_writes_the_chain_complex_text(seed, source, field):
    # ``rips`` writes its text straight from the simplices: the same bytes as
    # building the chain complex and serializing it, and text the reader accepts
    fsc = random_simplicial(random.Random(seed), source)
    comments = ["rips: test", *(f"level {k} = {v}" for k, v in enumerate(fsc.levels))]
    assert fsc == make_simplicial_by_lookup(fsc.simplices)
    text = serialize_simplicial(fsc, field, comments)
    assert text == serialize_complex(simplicial_to_chain(fsc, field), comments)
    assert text == serialize_simplicial_by_lookup(fsc, field, comments)
    assert parse_complex(text, field).validate() == []


def random_complex_text(rng: random.Random, field) -> tuple:
    """``(text, expected)``: a random complex written with each column's entries
    shuffled over several ``bnd`` lines, a row split in two, a pair that
    cancels and sometimes a stray entry, and the same complex built with
    ``column_by_sum`` and the public constructor.

    Over Q half the texts hold whole numbers only, which the reader keeps as
    ints and its d∘d check sums as integers, and half hold fractions with
    denominators 2-3 too, so it takes the general path; over GF(p) every
    residue is whole.
    """
    c = random_complex(rng, rng.randint(0, 25), field)
    whole = field != Q or rng.random() < 0.5
    if field == Q and whole:
        c = whole_basis(c)
    gens = [(g.label(), g.degree, g.filtration) for g in c.all_generators()]
    rng.shuffle(gens)  # the reader and the expected complex number them in this order

    def scalar():
        v = field.normalize(rng.randint(-9, 9))
        return v if whole else v / rng.randint(2, 3)

    named: dict = {}
    for n in c.degrees():
        below = c.gens(n - 1)
        for g in c.gens(n):
            entries = [(v, below[r].label()) for r, v in c.column(n, g.gid)]
            if entries:
                k = rng.randrange(len(entries))
                v, target = entries[k]
                a = scalar()
                entries[k:k + 1] = [(a, target), (field.add(v, field.neg(a)), target)]
            if below:
                b, target = scalar(), rng.choice(below).label()
                entries += [(b, target), (field.neg(b), target)]
            if entries:
                named[g.label()] = entries
    if named and rng.random() < 0.25:  # may break the filtration or d∘d
        source = rng.choice(list(named))
        named[source].append((scalar(), rng.choice(named[source])[1]))
    lines = [f"gen {name} {n} {s}" for name, n, s in gens]
    for source, entries in named.items():
        entries = entries[:]
        rng.shuffle(entries)
        while entries:  # bnd lines may come before the gen lines they name
            k = rng.randint(1, len(entries))
            lines.insert(rng.randint(0, len(lines)), f"bnd {source} " + " ".join(
                f"{field.format(v)} {t}" for v, t in entries[:k]))
            entries = entries[k:]
    text = "\n".join(lines) + "\n"
    by_degree: dict = {}
    lookup: dict = {}
    for name, n, s in gens:
        lookup[name] = Generator(len(by_degree.setdefault(n, [])), n, s, name)
        by_degree[n].append(lookup[name])
    boundary = {n: [[] for _ in gs] for n, gs in by_degree.items()}
    for source, entries in named.items():
        src = lookup[source]
        boundary[src.degree][src.gid] = column_by_sum(
            field, [(lookup[target].gid, v) for v, target in entries])
    return text, FilteredChainComplex(field, by_degree, boundary)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), source=st.sampled_from(["random", "rips", "simp"]),
       field=st.sampled_from(corpus_fields()))
def test_the_reader_builds_the_columns_the_constructor_accepts(seed, source, field):
    # parse_complex adopts its columns without the constructor's copy and
    # check; they must be the ones the checked paths build.  Over Q the reader
    # keeps a whole coefficient as an int: its columns must equal, and its
    # violations be, those of the constructor's Fractions
    rng = random.Random(seed)
    if source == "random":
        text, expected = random_complex_text(rng, field)
    else:
        fsc = random_simplicial(rng, source)
        text = serialize_simplicial(fsc, field)
        expected = simplicial_to_chain_by_entries(fsc, field)
    try:
        c = parse_complex(text, field)
    except InvalidComplexError as exc:
        assert exc.violations == expected.validate() != []
        return
    checked = FilteredChainComplex(field, c.generators, c.boundary)
    assert c.generators == checked.generators == expected.generators
    assert c.boundary == checked.boundary == expected.boundary
    assert c.validate() == checked.validate() == expected.validate() == []


def test_the_reader_keeps_a_whole_coefficient_as_an_int():
    # over Q a whole coefficient is stored as its int, whatever its spelling,
    # and a fractional one as a Fraction; a GF(p) residue is an int as before
    gens = "gen a 0 0\ngen b 0 0\ngen e 1 0\n"
    spellings = {"-1 a 1 b": [int, int], "-1 a 2/2 b": [int, int],
                 "1/2 a -1/2 b": [Fraction, Fraction]}
    for entries, kinds in spellings.items():
        col = parse_complex(f"{gens}bnd e {entries}\n", Q).column(1, 0)
        assert [type(v) for _, v in col] == kinds
    assert parse_complex(f"{gens}bnd e -1 a 2/2 b\n", Q).column(1, 0) == [
        (0, Q.normalize(-1)), (1, Q.one)]
    gf5 = parse_complex(f"{gens}bnd e -1 a 7 b\n", PrimeField(5)).column(1, 0)
    assert gf5 == [(0, 4), (1, 2)] and all(type(v) is int for _, v in gf5)
    # validate reads its path off the entries: whole ones sum numerators
    # however the complex was built, and a fraction takes integral's columns;
    # the entry oracle's constructor keeps each ±1 as a whole Fraction
    fsc = rips(PointCloud.from_points([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0.5)]), 2)
    named = FilteredChainComplex.from_named(Q, [("a", 0, 0), ("b", 1, 0)], {"b": [(2, "a")]})
    by_entries = simplicial_to_chain_by_entries(fsc, Q)
    built = random_complex(random.Random(1), 20, Q)
    for check, general in [(lambda: parse_complex(serialize_simplicial(fsc, Q), Q), False),
                           (by_entries.validate, False),
                           (named.validate, False),
                           (lambda: parse_complex(f"{gens}bnd e 1/2 a -1/2 b\n", Q), True),
                           (built.validate, True)]:
        with counting_integral() as calls:
            check()
        assert bool(calls) == general
    # the reducer's columns of ints still come back as Fractions
    c = parse_complex(serialize_simplicial(fsc, Q), Q)
    pairs = decompose(c)[0].pairs
    assert pairs and all(type(v) is Fraction for p in pairs for _, v in p.cycle)
    vectors = kernel(c.boundary_matrix(1), Q).columns
    assert vectors and all(type(v) is Fraction for col in vectors for _, v in col)


@pytest.mark.parametrize("field, zero", [(Q, False), (GF2, True), (PrimeField(3), True)])
def test_six_times_a_generator_is_a_violation_over_q_alone(field, zero):
    # d∘d(t) = 3 * 2 a: zero mod 2 and mod 3, so the whole-number sum over Q
    # must not reduce modulo anything
    text = "gen a 0 0\ngen e 1 0\ngen t 2 0\nbnd e 2 a\nbnd t 3 e\n"
    if zero:
        assert parse_complex(text, field).validate() == []
        return
    with pytest.raises(InvalidComplexError) as exc:
        parse_complex(text, field)
    assert [str(v) for v in exc.value.violations] == [
        "degree 2, generator 0: d∘d ≠ 0 at generator t"]


def tied_cloud(rng: random.Random) -> PointCloud:
    """Up to 8 points on a 3x3 integer grid, repeats allowed, or a symmetric
    matrix of small integer distances: either way many distances tie."""
    n = rng.randint(0, 8)
    if rng.random() < 0.5:
        return PointCloud.from_points([(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(n)])
    dist = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        dist[i][j] = dist[j][i] = rng.randint(0, 3)
    return PointCloud.from_distances(dist)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_dim=st.integers(0, 4),
       threshold=st.sampled_from([None, 0.0, 1.0, 1.5, 10.0]),
       field=st.sampled_from([GF2, PrimeField(3), Q]))
def test_rips_is_make_simplicial_of_the_brute_force_cliques(seed, max_dim, threshold, field):
    # faces included: rips finds them through each simplex's parent,
    # make_simplicial by position, the oracle by slicing vertex tuples
    pc = tied_cloud(random.Random(seed))
    dist = [[pc.distance(i, j) for j in range(len(pc))] for i in range(len(pc))]
    cliques = rips_by_cliques(dist, max_dim, threshold)
    fsc = rips(pc, max_dim, threshold)
    assert fsc == make_simplicial(cliques) == make_simplicial_by_lookup(cliques)
    comments = [f"level {k} = {v}" for k, v in enumerate(fsc.levels)]
    text = serialize_simplicial(fsc, field, comments)
    assert text == serialize_simplicial_by_lookup(fsc, field, comments)
    assert text == serialize_complex(simplicial_to_chain(fsc, field), comments)


def random_simplicial_entries(rng: random.Random) -> list:
    """(verts, value) pairs over 5 vertices, shuffled, often with faces
    missing or late, sometimes with a repeated vertex or simplex."""
    entries = []
    for _ in range(rng.randint(1, 12)):
        verts = tuple(rng.sample(range(5), rng.randint(1, 4)))
        if rng.random() < 0.02:
            verts += verts[:1]
        entries.append((verts, rng.choice([0, 0.5, 1.0, 2.5])))
    if rng.random() < 0.7:  # close most of them under faces, values kept
        closed = {tuple(sorted(v)): x for v, x in entries}
        for verts in list(closed):
            for k in range(1, len(verts)):
                for face in combinations(verts, k):
                    closed.setdefault(face, min(closed[verts], rng.choice([0, 1.0, 3.0])))
        entries = list(closed.items())
    rng.shuffle(entries)
    return entries


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_make_simplicial_finds_faces_and_faults_as_the_lookup_oracle(seed):
    entries = random_simplicial_entries(random.Random(seed))
    try:
        expected = make_simplicial_by_lookup(entries)
    except (UsageError, ClosureError) as exc:
        with pytest.raises(type(exc)) as err:
            make_simplicial(entries)
        assert str(err.value) == str(exc)
        return
    assert make_simplicial(entries) == expected


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


def test_a_distance_that_overflows_is_a_data_error():
    # each coordinate is finite, but two distances are beyond the largest float
    with pytest.raises(ParseError, match=r"^non-finite distance at \(0, 1\)$"):
        parse_point_cloud("pt -1e308 0\npt 1e308 0\npt 1.7e308 0\n")
    for bad in (math.inf, math.nan):  # NaN used to read as an asymmetry
        with pytest.raises(UsageError, match=r"^non-finite distance at \(0, 1\)$"):
            PointCloud.from_distances([[0, bad], [bad, 0]])


@pytest.mark.parametrize("text, message", [
    ("dist 2\n0 1\n1 0\ndist 2\n", "line 4: second dist header"),
    ("dist 2\n0 1\ndist 1\n1 0\n", "line 3: second dist header"),
    ("pt 0 0\npt 5 5\ndist 2\n0 1\n1 0\n", "line 3: cannot mix pt lines with a dist matrix"),
])
def test_point_cloud_takes_one_dist_header_and_no_points_with_it(text, message):
    with pytest.raises(ParseError) as err:
        parse_point_cloud(text)
    assert str(err.value) == message
