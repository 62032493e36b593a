import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spectra_persist.cli import main

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


@pytest.mark.parametrize("text", ['{"dims": []}',
                                  '{"r_max": 2, "dims": [{"r": "x", "n": 0, "s": 0, "dim": 1}]}',
                                  '{"r_max": 2, "dims": [{"r": 1.7, "n": 0, "s": 0, "dim": 1}]}',
                                  '{"r_max": 2, "dims": [{"r": 1, "n": 0, "s": 0, "dim": true}]}',
                                  '{"r_max": 2, "dims": [{"r": 1, "n": "0", "s": 0, "dim": 1}]}',
                                  pytest.param('{"a":' + "[" * 100_000, id="deeply-nested")])
def test_recover_malformed_json_is_a_data_error(capsys, tmp_path, text):
    table = tmp_path / "pages.json"
    table.write_text(text)
    assert_one_line_data_error(*run(capsys, "recover", table))


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
