import errno
import gc
import importlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import spectra_persist
from spectra_persist import cli, ingest, simplicial
from spectra_persist.cli import main
from spectra_persist.complexes import FilteredChainComplex
from spectra_persist.errors import InvalidComplexError, ParseError, shorten
from spectra_persist.fields import RationalField
from spectra_persist.ingest import parse_complex
from spectra_persist.spectral import PageTable

from helpers import traced

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_barcode_model_fixture(capsys):
    code, out, _ = run(capsys, "barcode", FIXTURES / "u_0_2_3.fcc", "--field", "2")
    assert code == 0
    assert out.strip() == "0 2 3 1"


def test_barcode_empty(capsys):
    code, out, _ = run(capsys, "barcode", FIXTURES / "empty.fcc")
    assert code == 0
    assert out.strip() == ""


def test_barcode_triangle_json(capsys):
    code, out, _ = run(capsys, "barcode", FIXTURES / "triangle.fcc",
                       "--field", "q", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["format"] == "spectra-persist/1"
    assert obj["kind"] == "barcode"
    assert len(obj["entries"]) == 3  # (0,0,1)x2 is one entry of multiplicity 2
    assert sum(e["multiplicity"] for e in obj["entries"]) == 4


def test_pages_both_engines_match(capsys):
    code, out, _ = run(capsys, "pages", FIXTURES / "u_0_2_3.fcc",
                       "--r-max", "4", "--engine", "both")
    assert code == 0
    assert "DIFF: none" in out
    blocks = out.split("# engine: direct")
    assert len(blocks) == 2
    first = [l for l in blocks[0].splitlines() if l and not l.startswith("#")]
    second = [l for l in blocks[1].splitlines()
              if l and not l.startswith("#") and not l.startswith("DIFF")]
    assert first == second


def test_pages_empty(capsys):
    code, out, _ = run(capsys, "pages", FIXTURES / "empty.fcc")
    assert code == 0
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert data == []


def test_pages_triangle_both(capsys):
    code, out, _ = run(capsys, "pages", FIXTURES / "triangle.fcc",
                       "--field", "q", "--engine", "both")
    assert code == 0
    assert "DIFF: none" in out


def test_verify_model(capsys):
    code, out, _ = run(capsys, "verify", FIXTURES / "u_0_2_3.fcc")
    assert code == 0
    assert "5/5 checks passed" in out


@pytest.mark.parametrize("r_max", ["1", "2", "3", "4"])
def test_verify_passes_below_the_longest_bar(capsys, r_max):
    # the bar 0 2 3 dies on page 4: the round trip must still recover it
    code, out, _ = run(capsys, "verify", FIXTURES / "u_0_2_3.fcc", "--r-max", r_max)
    assert code == 0
    assert out.splitlines()[-1] == "5/5 checks passed"


def test_verify_random(capsys):
    code, out, _ = run(capsys, "verify", "--random", "40", "--seed", "7",
                       "--field", "2")
    assert code == 0
    assert "5/5 checks passed" in out


def test_verify_broken_complex_exits_one(capsys):
    code, _, err = run(capsys, "verify", FIXTURES / "broken_dsq.fcc")
    assert code == 1
    assert "d∘d" in err


def test_rips_two_points(capsys):
    code, out, _ = run(capsys, "rips", FIXTURES / "two_points.pts", "--max-dim", "1")
    assert code == 0
    gens = [l for l in out.splitlines() if l.startswith("gen ")]
    assert len(gens) == 3


def test_rips_max_dim_beyond_the_complex_stops_at_once():
    # a subprocess with a timeout, so a loop over an empty frontier fails here
    def rips(max_dim):
        return subprocess.run(
            [sys.executable, "-m", "spectra_persist.cli", "rips",
             str(FIXTURES / "two_points.pts"), "--max-dim", str(max_dim)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)})
    one, huge = rips(1), rips(10**18)
    assert one.returncode == huge.returncode == 0 and huge.stderr == ""
    # only the comment naming max_dim differs
    assert huge.stdout == one.stdout.replace("max_dim=1,", f"max_dim={10**18},", 1)


def test_rips_pipe_to_barcode(capsys, monkeypatch):
    code, out, _ = run(capsys, "rips", FIXTURES / "circle8.pts",
                       "--max-dim", "2", "--threshold", "1.6", "--field", "2")
    assert code == 0
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out2, _ = run(capsys, "barcode", "-", "--field", "2")
    assert code == 0
    lines = [l.split() for l in out2.splitlines()]
    inf_deg0 = [l for l in lines if l[0] == "0" and l[2] == "inf"]
    assert len(inf_deg0) == 1 and inf_deg0[0][3] == "1"
    deg1 = [l for l in lines if l[0] == "1"]
    assert sum(int(l[3]) for l in deg1) == 1


def test_rips_distance_matrix_flag(capsys):
    code, out, _ = run(capsys, "rips", "--dist", FIXTURES / "d3.txt", "--max-dim", "2")
    assert code == 0
    # 3 vertices + 3 edges + the full triangle (no threshold)
    assert len([l for l in out.splitlines() if l.startswith("gen ")]) == 7


def test_recover_round_trips_pages(capsys, monkeypatch, tmp_path):
    code, pages_out, _ = run(capsys, "pages", FIXTURES / "u_0_2_3.fcc",
                             "--r-max", "4", "--engine", "direct")
    assert code == 0
    table = tmp_path / "pages.txt"
    table.write_text(pages_out)
    code, out, _ = run(capsys, "recover", table, "--s-min", "2")
    assert code == 0
    assert out.strip() == "0 2 3 1"


def test_recover_empty_table(capsys, tmp_path):
    table = tmp_path / "empty.txt"
    table.write_text("# r_max 3\n")
    code, out, _ = run(capsys, "recover", table)
    assert code == 0
    assert out.strip() == ""


def test_recover_triangle_via_json(capsys, tmp_path):
    code, pages_out, _ = run(capsys, "pages", FIXTURES / "triangle.fcc",
                             "--field", "q", "--format", "json")
    table = tmp_path / "pages.json"
    table.write_text(pages_out)
    code, out, _ = run(capsys, "recover", table, "--s-min", "0")
    assert code == 0
    assert out.splitlines() == ["0 0 1 2", "0 0 inf 1", "1 2 inf 1"]


def test_full_pipeline_round_trip_bit_exact(capsys, tmp_path):
    for fixture in ("u_0_2_3.fcc", "triangle.fcc", "empty.fcc"):
        code, want, _ = run(capsys, "barcode", FIXTURES / fixture, "--field", "q")
        assert code == 0
        code, pages_out, _ = run(capsys, "pages", FIXTURES / fixture,
                                 "--field", "q", "--engine", "direct")
        assert code == 0
        table = tmp_path / "t.txt"
        table.write_text(pages_out)
        code, got, _ = run(capsys, "recover", table)
        assert code == 0
        assert got == want


def test_betti_command(capsys):
    code, out, _ = run(capsys, "betti", FIXTURES / "triangle.fcc", "--field", "q",
                       "--n", "0", "--i", "0", "--j", "0")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "betti", FIXTURES / "triangle.fcc", "--field", "q",
                       "--n", "0", "--i", "0", "--j", "1")
    assert code == 0 and out.strip() == "1"


def test_betti_json_is_the_versioned_envelope(capsys):
    betti = ["betti", FIXTURES / "triangle.fcc", "--field", "q", "--n", "0", "--i", "0",
             "--j", "1"]
    code, out, _ = run(capsys, *betti, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"format": "spectra-persist/1", "kind": "betti",
                               "n": 0, "i": 0, "j": 1, "value": 1}
    for fmt in ("text", "tsv"):
        assert run(capsys, *betti, "--format", fmt) == (0, "1\n", "")


def test_rips_reads_its_field_before_its_input(capsys, monkeypatch):
    # as barcode does: a bad --field is a usage error before any file is read
    monkeypatch.setattr(simplicial, "parse_point_cloud", lambda text: pytest.fail("cloud read"))
    for command in ("rips", "barcode"):
        assert run(capsys, command, "/nonexistent", "--field", "4") == (
            2, "", "error: modulus 4 is not prime\n")


@pytest.mark.parametrize("command", ["barcode", "betti", "pages", "verify"])
def test_an_input_path_with_random_is_a_usage_error(capsys, monkeypatch, command):
    # as rips's --dist: neither source is dropped, and neither the field nor the
    # input is read first
    extra = ["--n", "0", "--i", "0", "--j", "1"] if command == "betti" else []
    monkeypatch.setattr(cli, "_read_text", lambda path: pytest.fail("input read"))
    for path in (FIXTURES / "triangle.fcc", "/nonexistent", "-"):
        assert run(capsys, command, path, "--random", "3", "--field", "4", *extra) == (
            2, "", "error: give either an input path or --random, not both\n")
    code, out, err = run(capsys, command, "--random", "3", *extra)
    assert (code, err) == (0, "") and out


def test_random_is_capped_before_a_complex_is_built(capsys, monkeypatch):
    # one past the cap is a usage error naming it; at the cap a stub stands in
    # for random_complex, so no complex of that size is built
    from spectra_persist import randomgen

    build = randomgen.random_complex
    monkeypatch.setattr(randomgen, "random_complex", lambda *args: pytest.fail("built"))
    for command in ("barcode", "pages", "verify"):
        assert run(capsys, command, "--random", cli.RANDOM_MAX + 1) == (
            2, "", f"error: --random must be <= {cli.RANDOM_MAX}\n")
    asked = []
    monkeypatch.setattr(randomgen, "random_complex", lambda rng, n, field: (
        asked.append(n) or build(rng, 3, field)))
    code, out, err = run(capsys, "barcode", "--random", cli.RANDOM_MAX)
    assert (code, err, asked) == (0, "", [cli.RANDOM_MAX]) and out


@pytest.mark.parametrize("max_dim, top", [(1, 1), (2, 2), (5, 5), (64, 5)])
def test_rips_is_capped_at_a_simplex_count(capsys, monkeypatch, tmp_path, max_dim, top):
    # with no threshold, 6 points make C(6, k + 1) simplices of dimension k;
    # a cap of exactly their count lets the run through, and one below it
    # refuses the top dimension before any line is written
    path = tmp_path / "six.pts"
    path.write_text("".join(f"pt {x} {x * x}\n" for x in range(6)), encoding="utf-8")
    total = sum(math.comb(6, k + 1) for k in range(top + 1))
    monkeypatch.setattr(simplicial, "RIPS_MAX", total)
    code, out, err = run(capsys, "rips", path, "--max-dim", max_dim)
    assert (code, err) == (0, "")
    assert sum(line.startswith("gen ") for line in out.splitlines()) == total
    monkeypatch.setattr(simplicial, "RIPS_MAX", total - 1)
    assert run(capsys, "rips", path, "--max-dim", max_dim) == (
        2, "", f"error: the Rips complex passes {total - 1} simplices at dimension {top}; "
               "lower the max dimension or the threshold\n")


def test_rips_is_capped_at_a_point_count(capsys, monkeypatch, tmp_path):
    # a cloud of exactly the cap's points is read; the first pt line past it
    # is a data error naming the cap, raised before its coordinates are read
    # and before any distance is computed.  A dist matrix has no cap.
    monkeypatch.setattr(simplicial, "POINTS_MAX", 4)
    path = tmp_path / "cloud.pts"
    four = "".join(f"pt {x} {x * x}\n" for x in range(4))
    path.write_text(four, encoding="utf-8")
    code, out, err = run(capsys, "rips", path, "--max-dim", "1")
    assert (code, err) == (0, "") and out.count("\ngen ") == 4 + 6
    monkeypatch.setattr(simplicial.PointCloud, "from_points", lambda points: pytest.fail("built"))
    for last in ("pt 4 16", "pt x y"):
        path.write_text(f"{four}{last}\n", encoding="utf-8")
        assert run(capsys, "rips", path) == (
            1, "", "error: line 5: more than 4 points: a cloud is held as its n-by-n "
                   "distance matrix\n")
    path.write_text("dist 5\n" + "".join(" ".join("0" if i == j else "1" for j in range(5)) + "\n"
                                         for i in range(5)), encoding="utf-8")
    code, out, err = run(capsys, "rips", "--dist", path, "--max-dim", "0")
    assert (code, err) == (0, "") and out.count("\ngen ") == 5


def test_running_out_of_memory_is_one_error_line(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_load_complex", exhausted)
    assert run(capsys, "barcode", FIXTURES / "triangle.fcc") == (1, "", "error: out of memory\n")


@pytest.mark.parametrize("command, name, text, message", [
    ("barcode", "f.fcc", "gen a 0 0\x0c\ngen b 0\u20280\ngen a 0 1\n",
     "duplicate generator 'a'"),
    ("rips", "f.pts", "pt 0 0\x0c\npt 1\u20281\npt x 2\n", "bad coordinate"),
    ("recover", "f.pages", "# r_max 2\x0c\n1 0 0\u20281\n1 0 x 1\n", "bad page cell '1 0 x 1'"),
], ids=["fcc", "pts", "pages"])
def test_an_error_names_the_line_an_editor_shows(capsys, tmp_path, command, name, text,
                                                   message):
    # a form feed or a U+2028 inside a line is blank space, not a line break
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert run(capsys, command, path) == (1, "", f"error: line 3: {message}\n")


def test_exit_codes(capsys):
    code, _, err = run(capsys, "barcode", FIXTURES / "broken_dsq.fcc")
    assert code == 1
    code, _, err = run(capsys, "barcode", "/nonexistent/path.fcc")
    assert code == 1
    code, _, err = run(capsys, "betti", FIXTURES / "triangle.fcc",
                       "--n", "0", "--i", "3", "--j", "1")
    assert code == 2
    # argparse's own errors are usage errors too, each one line without the usage block
    code, out, err = run(capsys, "pages", "nothing.fcc", "--engine", "sideways")
    assert (code, out) == (2, "")
    assert err == ("error: argument --engine: invalid choice: 'sideways' "
                   "(choose from 'barcode', 'direct', 'both')\n")
    code, out, err = run(capsys, "betti", FIXTURES / "triangle.fcc")
    assert (code, out, err) == (2, "", "error: the following arguments are required: "
                                       "--n, --i, --j\n")


@pytest.mark.parametrize("argv, message", [
    (["barcode", FIXTURES / "triangle.fcc", "a\nb"], "unrecognized arguments: a b"),
    (["barcode", "--f=a\r\nb"], "ambiguous option: --f=a b could match --field, --format"),
], ids=["unrecognized", "ambiguous"])
def test_an_argument_with_a_line_break_gives_one_error_line(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def assert_one_line_data_error(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 400


def test_field_mismatch_error_is_capped(capsys, monkeypatch):
    # GF(3) residues read over GF(5): the field line stops them at parse time;
    # without it, every triangle breaks d∘d = 0
    code, out, _ = run(capsys, "rips", FIXTURES / "circle8.pts",
                       "--max-dim", "2", "--threshold", "1.6", "--field", "3")
    assert code == 0
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out_v, err = run(capsys, "verify", "-", "--field", "5")
    assert_one_line_data_error(code, out_v, err)
    assert "GF(3)" in err and "GF(5)" in err
    unmarked = "".join(l for l in out.splitlines(True) if not l.startswith("field "))
    monkeypatch.setattr("sys.stdin", io.StringIO(unmarked))
    code, out_v, err = run(capsys, "verify", "-", "--field", "5")
    assert_one_line_data_error(code, out_v, err)
    assert err.rstrip().endswith("and 5 more")


def test_rips_field_travels_through_the_pipe(capsys, monkeypatch):
    import io
    rips = ["rips", FIXTURES / "circle8.pts", "--max-dim", "1", "--threshold", "1.6"]
    code, out, _ = run(capsys, *rips, "--field", "3")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out_b, err = run(capsys, "barcode", "-", "--field", "5")
    assert_one_line_data_error(code, out_b, err)
    assert "complex is written over GF(3), not the requested GF(5)" in err
    code, out, _ = run(capsys, *rips, "--field", "5")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out_b, err = run(capsys, "barcode", "-", "--field", "5")
    assert code == 0 and err == ""
    assert out_b.splitlines() == ["0 0 1 7", "0 0 inf 1", "1 1 inf 1", "1 2 inf 8"]


@pytest.mark.parametrize("text", ['{"dims": []}', '{"r_max": 5}', '{"r_max": 2, "dims": [}',
                                  '{"r_max": 2, "dims": [{"r": "x", "n": 0, "s": 0, "dim": 1}]}',
                                  '{"r_max": 2, "dims": [{"r": 1.7, "n": 0, "s": 0, "dim": 1}]}',
                                  '{"r_max": 2, "dims": [{"r": 1, "n": 0, "s": 0, "dim": true}]}',
                                  '{"r_max": 2, "dims": [{"r": 1, "n": "0", "s": 0, "dim": 1}]}',
                                  pytest.param('{"a":' + "[" * 100_000, id="deeply-nested")])
def test_recover_malformed_json_is_a_data_error(capsys, tmp_path, text):
    table = tmp_path / "pages.json"
    table.write_text(text)
    assert_one_line_data_error(*run(capsys, "recover", table))


def test_recover_refuses_a_verify_report(capsys, tmp_path):
    # the report holds two tables, not one: it has no top-level dims to read
    code, report, _ = run(capsys, "verify", FIXTURES / "triangle.fcc", "--format", "json")
    assert code == 0
    table = tmp_path / "report.json"
    table.write_text(report)
    code, out, err = run(capsys, "recover", table)
    assert_one_line_data_error(code, out, err)
    assert err == "error: bad page table JSON: lacks key 'dims'\n"


@pytest.mark.parametrize("text", ["# r_max 4\n1 0 1 2\n",
                                  "# r_max 1000000\n1 0 0 1\n2 0 0 1\n"],
                         ids=["birth-without-death", "two-pages-at-a-large-r_max"])
def test_recover_refuses_a_table_no_complex_has(capsys, tmp_path, text):
    # the bars the recursion reads off the birth cells would also fill the
    # death cell (n=1, s=2), which the table leaves empty
    table = tmp_path / "pages.txt"
    table.write_text(text)
    code, out, err = run(capsys, "recover", table)
    assert_one_line_data_error(code, out, err)
    assert err == "error: no complex has this table: its bars give other pages at (n=1, s=2)\n"


@pytest.mark.parametrize("text, message", [
    ('{"r_max": 2, "dims": [[1, 0, 0, 1]]}', "dims[0] is not an object"),
    ('{"r_max": 2, "dims": [{"r": 1, "n": 0, "s": 0, "dim": 1}, 7]}', "dims[1] is not an object"),
    ('{"r_max": 2, "dims": {"a": 1}}', "dims is not a list"),
], ids=["entry-is-a-list", "second-entry-is-a-number", "dims-is-an-object"])
def test_recover_json_of_the_wrong_shape_names_the_bad_item(capsys, tmp_path, text, message):
    table = tmp_path / "pages.json"
    table.write_text(text)
    code, out, err = run(capsys, "recover", table)
    assert_one_line_data_error(code, out, err)
    assert err == f"error: bad page table JSON: {message}\n"
    # a top level other than an object never reaches the JSON reader from the
    # CLI (it is read as the line format), but the library call names it
    with pytest.raises(ParseError, match="the top level is not an object"):
        PageTable.from_json_obj([json.loads(text)])


@pytest.mark.parametrize("command, text, message", [
    ("recover", "# r_max 3\n1 0 0 1\n1 0 0 2\n", "line 3: repeated page cell (r=1, n=0, s=0)"),
    ("recover", "# r_max 3\n1 0 0 2\n1 0 0 1\n", "line 3: repeated page cell (r=1, n=0, s=0)"),
    ("recover", '{"r_max": 2, "dims": [{"r": "inf", "n": 0, "s": 0, "dim": 1},'
                ' {"r": "inf", "n": 0, "s": 0, "dim": 1}]}',
     "bad page table JSON: repeated page cell (r=inf, n=0, s=0)"),
    ("recover", "# r_max 5\n# r_max 1\n", "line 2: second r_max comment"),
    ("rips", "pt -1e308 0\npt 1e308 0\npt 1.7e308 0\n", "non-finite distance at (0, 1)"),
    ("rips", "dist -1\n", "line 1: bad matrix size"),  # not "expected a -1x-1 matrix"
    # json.loads alone keeps the last of two equal keys: an empty barcode, r_max 1
    ("recover", '{"r_max": 3, "dims": [{"r": 1, "n": 0, "s": 0, "dim": 1},'
                ' {"r": "inf", "n": 0, "s": 0, "dim": 1}], "dims": []}',
     "bad page table JSON: repeated key 'dims'"),
    ("recover", '{"r_max": 5, "r_max": 1, "dims": []}', "bad page table JSON: repeated key 'r_max'"),
    ("recover", '{"r_max": 2, "dims": [{"r": 1, "n": 0, "s": 0, "dim": 1, "dim": 2}]}',
     "bad page table JSON: repeated key 'dim'"),
], ids=["cell-then-larger", "cell-then-smaller", "json-cell", "r_max", "overflowing-distance",
        "negative-dist-size", "json-dims-key", "json-r_max-key", "json-dim-key"])
def test_repeated_page_data_and_overflowing_distances_are_data_errors(capsys, tmp_path,
                                                                      command, text, message):
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = run(capsys, command, path)
    assert_one_line_data_error(code, out, err)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_rips_non_finite_threshold_is_a_usage_error(capsys, threshold):
    code, out, err = run(capsys, "rips", FIXTURES / "circle8.pts",
                         f"--threshold={threshold}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, text, field, want", [
    ("barcode", "gen a ١ 0\n", "2", 1),                               # gen degree
    ("barcode", "gen a 0 ١\n", "2", 1),                               # gen level
    ("barcode", "gen a 0 1_0\n", "2", 1),
    ("barcode", "gen a 0 0\ngen b 1 1\nbnd b 1_001 a\n", "5", 1),     # GF(p) scalar
    ("barcode", "gen a 0 0\ngen b 1 1\nbnd b 1_000 a\n", "q", 1),     # Q scalar
    ("barcode", "simp 0 1_0\n", "2", 1),                              # simp vertex id
    ("rips", "dist ١\n0\n", "2", 1),                                  # dist size
    ("recover", "# r_max 1_0\n", "2", 1),                             # page-table r_max
    ("recover", "# r_max 2\n1 0 0 ١\n", "2", 1),                      # page-table cell
    ("barcode", "gen a 0 0\n", "1_1", 2),                             # field token
    ("barcode", "gen a 0 0\n", "１１", 2),
    ("pages --r-max ١٠", "gen a 0 0\n", "2", 2),                    # integer options
    ("verify --r-max 1_0", "gen a 0 0\n", "2", 2),
    ("verify --random -3", "", "2", 2),
    ("barcode --random ١", "", "2", 2),
    ("barcode --random 3 --seed 1_0", "", "2", 2),
    ("recover --s-min ١", "# r_max 1\n", "2", 2),
    ("rips --max-dim ２", "pt 0 0\n", "2", 2),
    ("betti --n ١ --i 0 --j 0", "gen a 0 0\n", "2", 2),
    ("betti --n 0 --i 0 --j 1_0", "gen a 0 0\n", "2", 2),
    ("betti --n 0 --i 0 --j +", "gen a 0 0\n", "2", 2),
])
def test_integer_tokens_are_ascii_digits(capsys, tmp_path, command, text, field, want):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    command, *options = command.split(" ")
    args = [command, path, *options]
    if command != "recover":
        args += ["--field", field]
    code, out, err = run(capsys, *args)
    assert code == want and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, text, options, want", [
    ("rips", "pt 1_0 0\n", [], 1),                                    # pt coordinate
    ("rips", "pt ١ 0\n", [], 1),
    ("rips", "pt 0 0\npt 0 １\n", [], 1),
    ("rips", "dist 2\n0 1_0\n1_0 0\n", [], 1),                       # dist entry
    ("rips", "dist 2\n0 ١\n١ 0\n", [], 1),
    ("barcode", "simp 0 0\nsimp 0 1\nsimp 1_0 0 1\n", [], 1),        # simp value
    ("barcode", "simp ٠ 0\n", [], 1),
    ("rips", "pt 0 0\n", ["--threshold", "1_00"], 2),
    ("rips", "pt 0 0\n", ["--threshold", "١"], 2),
    ("rips", "pt 0 0\n", ["--threshold", " 1"], 2),
    ("rips", "pt 0 0\n", ["--threshold", "1e999"], 2),
    ("rips", "pt 0 0\n", ["--threshold", "0x1p0"], 2),
])
def test_real_tokens_are_ascii_decimals(capsys, tmp_path, command, text, options, want):
    # float() alone reads '1_0' as 10.0 and '١' as 1.0
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, path, *options)
    assert code == want and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text, shown", [("1.6", "1.6"), ("16e-1", "1.6"), ("+2", "2.0"),
                                         (".5", "0.5"), ("1E2", "100.0")])
def test_rips_threshold_comment_shows_the_float(capsys, text, shown):
    code, out, _ = run(capsys, "rips", FIXTURES / "circle8.pts", "--threshold", text)
    assert code == 0
    assert out.splitlines()[0] == f"# rips: 8 points, max_dim=1, threshold={shown}"


def test_closed_stdout_exits_one_without_a_traceback():
    # `pages ... | head -3`: here the reader is gone before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spectra_persist.cli", "pages",
             str(FIXTURES / "triangle.fcc"), "--r-max", "10"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)})
    finally:
        os.close(write_end)
    assert proc.returncode == 1 and proc.stderr == b""


def test_non_utf8_input_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "bad.fcc"
    path.write_bytes(b"gen a 0 0\xff\n")
    assert_one_line_data_error(*run(capsys, "barcode", path))


def test_stdin_refuses_the_bytes_a_path_refuses(tmp_path):
    # the console entry point reads stdin as strict UTF-8, as it opens a path;
    # Python's own stdin would keep the stray byte as a surrogate and exit 0
    path = tmp_path / "bad.fcc"
    path.write_bytes(b"gen a 0 0 # caf\xe9\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def barcode(source, stdin):
        return subprocess.run([sys.executable, "-m", "spectra_persist.cli", "barcode", source],
                              stdin=stdin, capture_output=True, timeout=60, env=env)
    by_path = barcode(str(path), subprocess.DEVNULL)
    with open(path, "rb") as fh:
        piped = barcode("-", fh)
    for proc, name in [(by_path, str(path)), (piped, "-")]:
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.decode() == f"error: cannot read {shorten(name)}: not UTF-8 text\n"


def test_closed_stdin_is_one_error_line():
    proc = subprocess.run([sys.executable, "-m", "spectra_persist.cli", "barcode", "-"],
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          preexec_fn=lambda: os.close(0))
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: cannot read -: standard input is closed\n"


@pytest.mark.parametrize("command, text", [
    ("barcode", "simp nan 0\n"),
    ("barcode", "simp inf 0\n"),
    ("rips", "pt nan 0\n"),
    ("rips", "pt 0 -inf\n"),
    ("rips", "dist 1\nnan\n"),
])
def test_non_finite_reals_are_data_errors(capsys, tmp_path, command, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert_one_line_data_error(*run(capsys, command, path))


def test_determinism_same_input_same_bytes(capsys):
    a = run(capsys, "verify", "--random", "25", "--seed", "3", "--field", "5")
    b = run(capsys, "verify", "--random", "25", "--seed", "3", "--field", "5")
    assert a == b
    c = run(capsys, "pages", "--random", "25", "--seed", "3", "--field", "5",
            "--engine", "both")
    d = run(capsys, "pages", "--random", "25", "--seed", "3", "--field", "5",
            "--engine", "both")
    assert c == d


def test_tsv_format(capsys):
    code, out, _ = run(capsys, "barcode", FIXTURES / "u_0_2_3.fcc", "--format", "tsv")
    assert code == 0
    assert out.strip() == "0\t2\t3\t1"


def test_simplicial_input_autodetected(capsys, tmp_path):
    path = tmp_path / "tri.simp"
    path.write_text("simp 0 0\nsimp 0 1\nsimp 0 2\n"
                    "simp 1 0 1\nsimp 1 0 2\nsimp 1 1 2\nsimp 2 0 1 2\n")
    code, out, _ = run(capsys, "barcode", path, "--field", "2")
    assert code == 0
    lines = out.splitlines()
    assert "0 0 inf 1" in lines
    assert "1 1 1 1" in lines  # loop born at level 1 dies at level 2


TRIANGLE_SIMP = ["simp 0 0", "simp 0 1", "simp 0 2", "simp 1 0 1", "simp 1 0 2", "simp 1 1 2"]


@pytest.mark.parametrize("head, end", [
    ("", "\n"),
    ("# a comment\n\n   \t\n  # another, then blanks\n\n", "\n"),
    ("# a comment\r\r  \r# simp in a comment is no data\r", "\r"),
    ("\r\n# a comment\r\n \r\n", "\r\n"),
], ids=["bare", "comments-blanks", "cr-only", "crlf"])
@pytest.mark.parametrize("simp", [True, False], ids=["simp", "chain"])
def test_the_input_kind_is_read_off_the_first_data_line_alone(
        capsys, tmp_path, monkeypatch, head, end, simp):
    # the first data line says whether the input is a simp file; finding it
    # splits no line after it, so the whole text is split once, by its reader;
    # a simp input's reader then splits the chain text it writes, once
    from spectra_persist import fields
    if simp:
        body, want = end.join(TRIANGLE_SIMP) + end, "simp"
    else:
        body, want = (FIXTURES / "triangle.fcc").read_text().replace("\n", end), "gen"
    text = head + body
    assert fields._first_word(text) == next(fields._data_lines(text))[1][0] == want
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode())
    split, numbered = [], fields.numbered_lines
    monkeypatch.setattr(fields, "numbered_lines", lambda t: split.append(t) or numbered(t))
    code, out, err = run(capsys, "barcode", path, "--field", "2")
    assert (code, err) == (0, "")
    assert [t.startswith("field 2\n") for t in split] == ([False, True] if simp else [False])
    # the hollow simp triangle's loop is born at level 1, the chain one's at 2
    assert out == f"0 0 1 2\n0 0 inf 1\n1 {1 if simp else 2} inf 1\n"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.text(alphabet="#  \t\n\r\x0c\x1c\u2028sx", max_size=30))
@example("\x0c \u2028\n# x\x0csimp\n gen a 0 0")
@example("#\u2028simp 0 0\rsimp 0 1")
@example("  # c\r\n\t\r\nsimp")
@example("\r\n\r\n# simp\r\n \r\n gen a 0 0\r\n")
@example("\r\r# simp\r\t\rsimp 0 0\r")
@example("# only\r\n#\tcomments\r\n")
@example("# a comment\r")
def test_first_word_keeps_the_line_rule_of_the_readers(text):
    # a form feed, \x1c or U+2028 ends no line, so a comment runs past it
    from spectra_persist import fields
    want = next(fields._data_lines(text), (0, [None]))[1][0]
    assert fields._first_word(text) == want


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_the_first_word_is_read_holding_only_its_prefix(end):
    # the first data line is found in place: nothing of the text after it
    # is copied, whatever its line ends (a 1 MB text once cost 1.76 MB)
    from spectra_persist import fields
    prefix = end.join(["# a comment", "", " \t", "# simp", " gen a 0 0"]) + end
    text = prefix + ("bnd a 1 b" + end) * 100_000
    word, _, peak = traced(lambda: fields._first_word(text))
    assert word == "gen"
    assert peak < 4096 + 2 * len(prefix)


def garbage_per_command(capsys, tmp_path, points, complex_text) -> list:
    """Run every command in-process with the cyclic collector off, as the
    console entry point does; list what ``gc.collect()`` finds after each."""
    cx, pages = tmp_path / "complex.fcc", tmp_path / "pages.json"
    cx.write_text(complex_text)
    pages.write_text(run(capsys, "pages", cx, "--format", "json")[1])
    commands = [["rips", points, "--max-dim", "2"],
                ["barcode", cx], ["barcode", cx, "--format", "json"],
                ["verify", cx], ["verify", cx, "--format", "json"],
                ["pages", cx, "--engine", "both"],
                ["pages", cx, "--engine", "both", "--format", "json"],
                ["recover", pages], ["betti", cx, "--n", "0", "--i", "0", "--j", "1"],
                ["barcode", FIXTURES / "broken_dsq.fcc"]]
    gc.collect()
    gc.disable()
    try:
        found = []
        for argv in commands:
            code = run(capsys, *argv)[0]
            found.append((argv[0], code, gc.collect()))
        return found
    finally:
        gc.enable()


def test_commands_leave_no_garbage_that_grows_with_the_input(capsys, tmp_path):
    rng = random.Random(7)
    cloud = tmp_path / "cloud.pts"
    cloud.write_text("".join(f"pt {(i % 6 + rng.random()) / 6} {(i // 6 + rng.random()) / 5}\n"
                             for i in range(30)))
    code, rips_text, _ = run(capsys, "rips", cloud, "--max-dim", "2", "--threshold", "0.45")
    assert code == 0 and rips_text.count("\ngen ") > 500
    small = tmp_path / "small"
    large = tmp_path / "large"
    small.mkdir()
    large.mkdir()
    triangle = (FIXTURES / "triangle.fcc").read_text()
    garbage_per_command(capsys, small, FIXTURES / "two_points.pts", triangle)  # warm-up
    found = garbage_per_command(capsys, small, FIXTURES / "two_points.pts", triangle)
    assert [code for _, code, _ in found] == [0] * 9 + [1]
    # argparse's parser holds cycles: a few hundred objects per command, whatever the input
    assert found == garbage_per_command(capsys, large, cloud, rips_text)


# loads the CLI as ``python -m spectra_persist.cli`` does, runs one command and
# lists every module then loaded on the last line of stderr
LIST_MODULES = ("import sys\n"
                "from spectra_persist.cli import main\n"
                "code = main(sys.argv[1:])\n"
                "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
                "sys.exit(code)\n")


# modules named as in sys.modules, the package's own by their short name
STDLIB = {"decimal", "fractions", "json"}
SIMP = FIXTURES / "triangle.simp"


@pytest.mark.parametrize("argv, needed, absent", [
    # rips loads no module of the package beyond cli, errors, fields and simplicial
    (["rips", FIXTURES / "circle8.pts"], ["simplicial"],
     ["ingest", "complexes", "linalg", "signs", "spectral", "persistence", "randomgen", "json",
      "fractions", "decimal"]),
    (["rips", FIXTURES / "circle8.pts", "--field", "q"], ["simplicial"],
     ["ingest", "complexes", "linalg", "signs", "spectral", "persistence", "randomgen", "json",
      "fractions", "decimal"]),
    # only decompose over Q loads signs
    (["barcode", FIXTURES / "triangle.fcc"], ["persistence"],
     ["signs", "spectral", "randomgen", "json", "simplicial", "fractions"]),
    (["barcode", SIMP], ["simplicial", "ingest", "persistence"],
     ["signs", "spectral", "randomgen", "json"]),
    (["barcode", SIMP, "--field", "q"], ["simplicial", "ingest", "persistence", "signs"],
     ["spectral", "randomgen", "json", "fractions", "decimal"]),
    (["betti", FIXTURES / "triangle.fcc", "--n", "0", "--i", "0", "--j", "1"], ["persistence"],
     ["signs", "spectral", "randomgen", "json", "simplicial", "fractions"]),
    (["verify", FIXTURES / "triangle.fcc"], ["spectral"],
     ["signs", "randomgen", "json", "simplicial", "fractions"]),
    (["pages", FIXTURES / "triangle.fcc"], ["spectral", "persistence"],
     ["signs", "randomgen", "json", "simplicial", "fractions"]),
    # only --format json and recover load json
    (["recover", FIXTURES / "triangle.pages"], ["spectral", "json"],
     ["randomgen", "simplicial", "ingest", "fractions"]),
], ids=["rips", "rips-q", "barcode", "barcode-simp", "barcode-simp-q", "betti", "verify", "pages",
        "recover"])
def test_a_command_loads_only_the_modules_it_runs(argv, needed, absent):
    proc = subprocess.run([sys.executable, "-c", LIST_MODULES, *map(str, argv)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.splitlines()[-1].split())

    def modules(names):
        return {m if m in STDLIB else f"spectra_persist.{m}" for m in names}
    assert modules(needed) <= loaded
    assert not modules(absent) & loaded
    assert "dataclasses" not in loaded


HALVES = "gen a 0 0\ngen b 0 0\ngen e 1 1\nbnd e 1/2 a -1/2 b\n"


@pytest.mark.parametrize("field", ["2", "q"])
def test_a_process_loads_fractions_only_for_a_fraction(field):
    # fractions loads decimal and numbers with it; over Q a whole coefficient
    # stays an int from rips's text, or a simp file, to the last check, and
    # GF(p) makes no Fraction
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def fraction_modules(argv, text="", code=0):
        proc = subprocess.run([sys.executable, "-c", LIST_MODULES, *argv], input=text,
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == code, proc.stderr
        return proc.stdout, {"fractions", "decimal"} & set(proc.stderr.splitlines()[-1].split())

    rips_text, loaded = fraction_modules(
        ["rips", str(FIXTURES / "circle8.pts"), "--max-dim", "2", "--field", field])
    assert loaded == set() and "\nbnd " in rips_text
    for command in ("barcode", "verify"):
        assert fraction_modules([command, "-", "--field", field], rips_text)[1] == set()
    # a simp input's signs are ints too
    simp_text, loaded = fraction_modules(
        ["barcode", str(FIXTURES / "triangle.simp"), "--field", field])
    assert loaded == set() and simp_text
    # a coefficient 1/2 is a Fraction over Q, and no GF(2) scalar
    over_q = field == "q"
    assert fraction_modules(["barcode", "-", "--field", field], HALVES, 0 if over_q else 1)[1] \
        == ({"fractions", "decimal"} if over_q else set())


PUBLIC = {
    "complexes": ["FilteredChainComplex", "Generator", "Violation", "homology_dims_by_level"],
    "errors": ["ClosureError", "InconsistentTableError", "InsufficientRMaxError",
               "InvalidComplexError", "PageTableError", "ParseError", "UsageError"],
    "fields": ["FieldSpec", "PrimeField", "RationalField", "Scalar", "field_from_text"],
    "ingest": ["parse_complex", "serialize_complex"],
    "linalg": ["SparseMatrix", "axpy", "kernel", "rank"],
    "persistence": ["INF", "Barcode", "BarEntry", "Pair", "Pairing", "betti", "decompose",
                    "multiplicity"],
    "randomgen": ["permute_generators", "random_complex"],
    "simplicial": ["FilteredSimplicialComplex", "PointCloud", "make_simplicial",
                   "parse_point_cloud", "parse_simplicial", "rips", "serialize_simplicial",
                   "simplicial_to_chain"],
    "spectral": ["CheckResult", "PageTable", "VerifyReport", "collapse_page", "pages_direct",
                 "pages_from_barcode", "parse_page_table", "recover_barcode", "verify"],
}


def test_every_public_name_resolves_to_its_home_module():
    assert sorted(spectra_persist.__all__) == sorted(n for ns in PUBLIC.values() for n in ns)
    star: dict = {}
    exec("from spectra_persist import *", star)
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"spectra_persist.{module}")
        for name in names:
            assert getattr(spectra_persist, name) is getattr(home, name), name
            assert star[name] is getattr(home, name), name
    with pytest.raises(AttributeError):
        spectra_persist.no_such_name


# the simplicial half of ingest, which ingest still serves by name
MOVED = ["FilteredSimplicialComplex", "PointCloud", "_real", "make_simplicial",
         "parse_point_cloud", "parse_simplicial", "rips", "serialize_simplicial",
         "simplicial_to_chain"]


def test_ingest_serves_each_moved_name_as_the_same_object(monkeypatch):
    for name in MOVED:
        assert getattr(ingest, name) is getattr(simplicial, name), name
        if not name.startswith("_"):
            assert getattr(spectra_persist, name) is getattr(simplicial, name), name
    with pytest.raises(AttributeError):
        ingest.no_such_name
    # a name wrapped on ingest and put back, as a tracer patches it, round-trips
    for name in ("parse_point_cloud", "rips", "simplicial_to_chain"):
        original = getattr(ingest, name)
        monkeypatch.setattr(ingest, name, lambda *args: None)
        assert getattr(ingest, name) is not original
        assert getattr(simplicial, name) is original
        monkeypatch.undo()
        assert getattr(ingest, name) is original is getattr(simplicial, name)


# -- long input tokens: every error line names them shortened ------------------

X, Y = "x" * 100_000, "y" * 100_000
NUM = "1" * 5000  # past int's digit limit
BIG = "9" * 4000  # an int, but a long one
SIMPLEX = tuple(range(3000))
SIMP_LINE = "simp 0 " + " ".join(map(str, SIMPLEX)) + "\n"


def cut(text: str) -> str:
    """What an error line shows of a long input text."""
    return f"{text[:40]}… ({len(text)} characters)"


def json_cell(r=1, n=0, s=0, dim=1, r_max=1) -> str:
    return json.dumps({"r_max": r_max, "dims": [{"r": r, "n": n, "s": s, "dim": dim}]})


# (argv with PATH for the input file, input text, exit code, message)
LONG_TOKEN_CASES = {
    "duplicate-generator": (["barcode", "PATH"], f"gen {X} 0 0\ngen {X} 0 0\n", 1,
                            f"line 2: duplicate generator {cut(X)!r}"),
    "complex-directive": (["barcode", "PATH"], f"{X} 0 0\n", 1,
                          f"line 1: unknown directive {cut(X)!r}"),
    "bnd-source": (["barcode", "PATH"], f"gen a 0 0\nbnd {X} 1 a\n", 1,
                   f"line 2: boundary for unknown generator {cut(X)!r}"),
    "bnd-target": (["barcode", "PATH"], f"gen a 1 0\nbnd a 1 {X}\n", 1,
                   f"line 2: boundary references unknown generator {cut(X)!r}"),
    "bnd-degree": (["barcode", "PATH"], f"gen {X} 1 0\ngen {Y} 1 0\nbnd {X} 1 {Y}\n", 1,
                   f"line 3: boundary of {cut(X)!r} (degree 1) cannot hit {cut(Y)!r} (degree 1)"),
    "coefficient-q": (["barcode", "PATH", "--field", "q"], f"gen a 1 0\ngen b 0 0\nbnd a {NUM} b\n",
                      1, f"line 3: {cut(NUM)!r} is not a rational scalar"),
    "coefficient-gf5": (["barcode", "PATH", "--field", "5"],
                        f"gen a 1 0\ngen b 0 0\nbnd a {NUM} b\n", 1,
                        f"line 3: {cut(NUM)!r} is not a GF(5) scalar"),
    "field-line": (["barcode", "PATH"], f"field {X}\n", 1,
                   f"line 1: unknown field {cut(X)!r} (expected a prime or 'q')"),
    "field-option": (["barcode", "PATH", "--field", X], "", 2,
                     f"unknown field {cut(X)!r} (expected a prime or 'q')"),
    "modulus": (["barcode", "PATH", "--field", BIG], "", 2,
                f"modulus {cut(BIG)} is too large (at most 3317044064679887385961980)"),
    "int-option": (["barcode", "--random", "1", "--seed", X], "", 2,
                   f"--seed must be an integer, got {cut(X)!r}"),
    "threshold": (["rips", "PATH", "--threshold", X], "", 2,
                  f"--threshold must be a finite number, got {cut(X)!r}"),
    "path": (["barcode", X], "", 1, f"cannot read {cut(X)}: {os.strerror(errno.ENAMETOOLONG)}"),
    "simp-directive": (["barcode", "PATH"], f"simp 0 0\n{X} 1\n", 1,
                       f"line 2: unknown directive {cut(X)!r}"),
    "simp-repeated-vertex": (["barcode", "PATH"], "simp 0" + " 0" * 3000 + "\n", 1,
                             f"line 1: repeated vertex in {cut(repr((0,) * 3000))}"),
    "duplicate-simplex": (["barcode", "PATH"], SIMP_LINE * 2, 1,
                          f"duplicate simplex {cut(repr(SIMPLEX))}"),
    "missing-face": (["barcode", "PATH"], SIMP_LINE, 1,
                     f"missing face {cut(repr(SIMPLEX[:-1]))} of {cut(repr(SIMPLEX))}"),
    "late-face": (["barcode", "PATH"], f"simp 1 0\nsimp 1 {BIG}\nsimp 0 0 {BIG}\n", 1,
                  f"face (0,) at 1.0 appears after {cut(repr((0, int(BIG))))} at 0.0"),
    "cloud-directive": (["rips", "PATH"], f"{X} 1 2\n", 1, f"line 1: unknown directive {cut(X)!r}"),
    "cloud-size": (["rips", "PATH"], f"dist {BIG}\n", 1,
                   f"expected a {cut(BIG)}x{cut(BIG)} matrix"),
    "table-r_max": (["recover", "PATH"], f"# r_max {NUM}\n", 1, f"line 1: bad r_max {cut(NUM)!r}"),
    "table-short-line": (["recover", "PATH"], f"1 0 {X}\n", 1,
                         f"line 1: expected 'r n s dim', got {cut('1 0 ' + X)!r}"),
    "table-cell": (["recover", "PATH"], f"1 0 0 {X}\n", 1,
                   f"line 1: bad page cell {cut('1 0 0 ' + X)!r}"),
    "table-repeated-cell": (["recover", "PATH"], f"1 0 {BIG} 1\n1 0 {BIG} 1\n", 1,
                            f"line 2: repeated page cell (r=1, n=0, s={cut(BIG)})"),
    "json-page": (["recover", "PATH"], json_cell(r=X), 1,
                  f"bad page table JSON: {cut(repr(X))} is not an integer"),
    "json-degree": (["recover", "PATH"], json_cell(n=X), 1,
                    f"bad page table JSON: cell (n={cut(repr(X))}, s=0) "
                    "is not indexed by integers"),
    "json-dim": (["recover", "PATH"], json_cell(dim=X), 1,
                 f"bad page table JSON: dimension {cut(repr(X))} at (r=1, n=0, s=0) "
                 "is not an integer"),
    "json-negative-dim": (["recover", "PATH"], json_cell(n=int(BIG), dim=-1), 1,
                          f"bad page table JSON: negative dimension at (r=1, n={cut(BIG)}, s=0)"),
    "json-page-range": (["recover", "PATH"], json_cell(r=int(BIG)), 1,
                        f"bad page table JSON: page index {cut(BIG)} outside 1..1 and inf"),
    "json-r_max": (["recover", "PATH"], json_cell(r_max=X), 1,
                   f"bad page table JSON: r_max must be a positive integer, got {cut(repr(X))}"),
    "json-long-integer": (["recover", "PATH"], json_cell().replace('"r_max": 1', f'"r_max": {NUM}'),
                          1, "bad page table JSON: an integer has too many digits"),
    "json-key": (["recover", "PATH"], f'{{"{X}": 1, "{X}": 2}}', 1,
                 f"bad page table JSON: repeated key {cut(X)!r}"),
    "s-min": (["recover", "PATH", "--s-min", BIG], "1 0 0 1\n", 2,
              f"table has support at level 0 below s_min={cut(BIG)}"),
    "betti": (["betti", "--random", "1", "--n", "0", "--i", BIG, "--j", "0"], "", 2,
              f"betti requires i <= j, got i={cut(BIG)}, j=0"),
    "invalid-level-label": (["barcode", "PATH"], f"gen {X} 1 0\ngen {Y} 0 1\nbnd {X} 1 {Y}\n", 1,
                            f"invalid complex: degree 1, generator 0: boundary target {cut(Y)} "
                            "at level 1 exceeds source level 0"),
    "format-option": (["barcode", "PATH", "--format", X], "", 2,
                      f"argument --format: invalid choice: {cut(X)!r} "
                      "(choose from 'text', 'json', 'tsv')"),
    "command": ([X], "", 2, f"argument command: invalid choice: {cut(X)!r} (choose from "
                "'barcode', 'pages', 'verify', 'rips', 'recover', 'betti')"),
    "unrecognized": (["barcode", "PATH", "a", X], "", 2,
                     f"unrecognized arguments: {cut('a ' + X)}"),
    "ambiguous-option": (["barcode", "PATH", f"--f={X}"], "", 2,
                         f"ambiguous option: {cut('--f=' + X)} could match --field, --format"),
    "flag-value": (["barcode", f"--help={X}"], "", 2,
                   f"argument -h/--help: ignored explicit argument {cut(X)!r}"),
    "invalid-dd-label": (["barcode", "PATH"],
                         f"gen {X} 2 0\ngen b 1 0\ngen c 0 0\nbnd {X} 1 b\nbnd b 1 c\n", 1,
                         "invalid complex: degree 2, generator 0: "
                         f"d∘d ≠ 0 at generator {cut(X)}"),
}


def test_shorten_keeps_a_short_text_and_cuts_a_long_one():
    assert shorten("x" * 40) == "x" * 40
    assert shorten("x" * 41) == cut("x" * 41) == "x" * 40 + "… (41 characters)"


@pytest.mark.parametrize("argv, text, code, message", LONG_TOKEN_CASES.values(),
                         ids=LONG_TOKEN_CASES.keys())
def test_an_error_line_shortens_the_long_input_it_names(capsys, tmp_path, argv, text, code,
                                                        message):
    path = tmp_path / "input"
    path.write_text(text)
    got, out, err = run(capsys, *[path if a == "PATH" else a for a in argv])
    assert (got, out) == (code, "")
    assert err == f"error: {message}\n"
    assert len(err.encode()) <= 1000



BROKEN_GENS = ("gen a 0 0\ngen b 0 0\ngen c 0 1\n"
               "gen ab 1 0\ngen bc 1 0\ngen ac 1 0\ngen abc 2 0\n")
BROKEN_SPELLINGS = [
    # whole tokens, which the reader keeps as ints
    "bnd ab -1 a 1 b\nbnd bc -1 b 1 c\nbnd ac -1 a 1 c\nbnd abc 1 bc 1 ac 1 ab\n",
    # 2/2 is whole too: the reader looks at the value, not at the slash
    "bnd ab -1 a 2/2 b\nbnd bc -1 b 2/2 c\nbnd ac -1 a 1 c\nbnd abc 2/2 bc 1 ac 1 ab\n",
    # the same values spelled with fractions: -4/4 and 3/3 are read as ints,
    # and 1/2 + 1/2 sums to a whole Fraction
    "bnd ab -4/4 a 3/3 b\nbnd bc -1 b 1/2 c 1/2 c\nbnd ac -4/4 a 3/3 c\n"
    "bnd abc 1/2 bc 1/2 bc 3/3 ac 1 ab\n",
]


def test_a_broken_complex_fails_alike_however_its_coefficients_are_spelled(capsys, tmp_path):
    # d∘d(abc) = 2c - 2a, and bc and ac reach c above their level
    Q = RationalField()
    general = FilteredChainComplex.from_named(
        Q, [(name, int(n), int(s)) for _, name, n, s in map(str.split, BROKEN_GENS.splitlines())],
        {"ab": [(-1, "a"), (1, "b")], "bc": [(-1, "b"), (1, "c")], "ac": [(-1, "a"), (1, "c")],
         "abc": [(1, "bc"), (1, "ac"), (1, "ab")]}).validate()
    path = tmp_path / "broken.fcc"
    for bnd in BROKEN_SPELLINGS:
        path.write_text(BROKEN_GENS + bnd)
        code, out, err = run(capsys, "barcode", path, "--field", "q")
        assert (code, out) == (1, "")
        assert err == (
            "error: invalid complex: degree 1, generator 1: boundary target c at level 1 "
            "exceeds source level 0; degree 1, generator 2: boundary target c at level 1 "
            "exceeds source level 0; degree 2, generator 0: d∘d ≠ 0 at generator abc\n")
        with pytest.raises(InvalidComplexError) as exc:
            parse_complex(BROKEN_GENS + bnd, Q)
        assert exc.value.violations == general
