import gc
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import spectra_persist
from spectra_persist.cli import main
from spectra_persist.errors import ParseError
from spectra_persist.spectral import PageTable

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


def test_exit_codes(capsys):
    code, _, err = run(capsys, "barcode", FIXTURES / "broken_dsq.fcc")
    assert code == 1
    code, _, err = run(capsys, "barcode", "/nonexistent/path.fcc")
    assert code == 1
    code, _, err = run(capsys, "betti", FIXTURES / "triangle.fcc",
                       "--n", "0", "--i", "3", "--j", "1")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["pages", "nothing.fcc", "--engine", "sideways"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("argv, needed, absent", [
    (["rips", FIXTURES / "circle8.pts"], ["ingest"],
     ["spectral", "persistence", "randomgen", "complexes", "linalg"]),
    (["barcode", FIXTURES / "triangle.fcc"], ["persistence"], ["spectral", "randomgen"]),
    (["betti", FIXTURES / "triangle.fcc", "--n", "0", "--i", "0", "--j", "1"], ["persistence"],
     ["spectral", "randomgen"]),
    (["verify", FIXTURES / "triangle.fcc"], ["spectral"], ["randomgen"]),
], ids=["rips", "barcode", "betti", "verify"])
def test_a_command_loads_only_the_modules_it_runs(argv, needed, absent):
    proc = subprocess.run([sys.executable, "-c", LIST_MODULES, *map(str, argv)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert {f"spectra_persist.{m}" for m in needed} <= loaded
    assert not {f"spectra_persist.{m}" for m in absent} & loaded
    assert "dataclasses" not in loaded
    assert "json" not in loaded  # only --format json and recover load it


@pytest.mark.parametrize("field, rationals", [("2", False), ("q", True)])
def test_only_a_process_over_q_imports_fractions(field, rationals):
    # fractions loads decimal and numbers with it; GF(p) makes no Fraction
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    rips = subprocess.run([sys.executable, "-c", LIST_MODULES, "rips", str(FIXTURES / "circle8.pts"),
                           "--max-dim", "2", "--field", field],
                          capture_output=True, text=True, timeout=60, env=env)
    barcode = subprocess.run([sys.executable, "-c", LIST_MODULES, "barcode", "-", "--field", field],
                             input=rips.stdout, capture_output=True, text=True, timeout=60,
                             env=env)
    for proc in (rips, barcode):
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stderr.splitlines()[-1].split())
        assert ("fractions" in loaded) == rationals
        assert ("decimal" in loaded) == rationals


PUBLIC = {
    "complexes": ["FilteredChainComplex", "Generator", "Violation", "homology_dims_by_level"],
    "errors": ["ClosureError", "InconsistentTableError", "InsufficientRMaxError",
               "InvalidComplexError", "PageTableError", "ParseError", "UsageError"],
    "fields": ["FieldSpec", "PrimeField", "RationalField", "Scalar", "field_from_text"],
    "ingest": ["FilteredSimplicialComplex", "PointCloud", "make_simplicial", "parse_complex",
               "parse_point_cloud", "parse_simplicial", "rips", "serialize_complex",
               "serialize_simplicial", "simplicial_to_chain"],
    "linalg": ["SparseMatrix", "axpy", "kernel", "rank"],
    "persistence": ["INF", "Barcode", "BarEntry", "Pair", "Pairing", "betti", "decompose",
                    "multiplicity"],
    "randomgen": ["permute_generators", "random_complex"],
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
