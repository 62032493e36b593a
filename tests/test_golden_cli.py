"""Golden digest of the CLI over a fixed matrix of commands.

Every case runs ``cli.main`` in-process; its argv, exit code, stdout and
stderr go into one sha256.  A change to any byte of any output changes the
digest, so a refactor that claims byte-identical output is checked here
rather than by hand.  Only re-record the digest when an output is meant to
change, and say which one in the change log.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from spectra_persist.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
COMPLEXES = ("u_0_2_3.fcc", "triangle.fcc", "empty.fcc", "broken_dsq.fcc")
FIELDS = ("2", "3", "q")
FORMATS = ("text", "json", "tsv")
GOLDEN = "2e89df815036effaed98ec865bb51776da0b76a76de25c0f54ea2765abf34e92"
SIMPLICIAL_GOLDEN = "c0a849ccfcc978996e19b8e2944c07d7eee8958b3ba48c1af4c9dda95a562191"


def _run(argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    argv = [str(FIXTURES / a[len("@"):]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _cases():
    """(argv, stdin-producing argv or None) pairs; '@name' is a fixture path."""
    for name in COMPLEXES:
        for field in FIELDS:
            for fmt in FORMATS:
                common = ["@" + name, "--field", field, "--format", fmt]
                yield ["barcode", *common], None
                yield ["pages", *common, "--engine", "both"], None
                yield ["pages", *common, "--engine", "direct"], None
                yield ["pages", *common, "--engine", "direct", "--r-max", "1"], None
                yield ["pages", *common, "--engine", "direct", "--r-max", "2"], None
                yield ["verify", *common], None
                yield (["recover", "-", "--format", fmt],
                       ["pages", "@" + name, "--field", field, "--format", fmt])
    clouds = (["@circle8.pts", "--max-dim", "2"],
              ["@circle8.pts", "--max-dim", "1", "--threshold", "1.6"],
              ["@two_points.pts", "--max-dim", "1"],
              ["--dist", "@d3.txt", "--max-dim", "2"])
    for cloud in clouds:
        for field in FIELDS:
            rips = ["rips", *cloud, "--field", field]
            yield rips, None
            for fmt in FORMATS:
                yield ["barcode", "-", "--field", field, "--format", fmt], rips
            yield ["verify", "-", "--field", field], rips
            yield ["pages", "-", "--field", field, "--engine", "both"], rips
    for seed in range(4):
        for field in ("2", "5", "q"):
            rand = ["--random", "14", "--seed", str(seed), "--field", field]
            yield ["barcode", *rand], None
            yield ["pages", *rand, "--engine", "both"], None
            yield ["pages", *rand, "--engine", "direct", "--r-max", "1"], None
            yield ["verify", *rand], None


def test_cli_output_matches_golden_digest():
    h = hashlib.sha256()
    for argv, source in _cases():
        stdin = "" if source is None else _run(source)[1]
        h.update(repr((source, argv, *_run(argv, stdin))).encode())
    assert h.hexdigest() == GOLDEN


# ``simp`` files read from standard input: implicit vertices, tied values,
# lines in no particular order, and a file with missing and late faces
SIMP_TEXTS = (
    "simp 0.5 0 1 2\nsimp 0.5 0 1\nsimp 0.25 1 2\nsimp 0.5 0 2\nsimp 1 0 3\n"
    "simp 1 1 3\nsimp 1.5 2 3\nsimp 1.5 0 1 3\nsimp 2 0 2 3\nsimp 2 1 2 3\n",
    "simp 0 4\nsimp 2 4 9\nsimp 2 9\nsimp 3 4 9 11\nsimp 3 9 11\nsimp 3 4 11\n",
    "simp 1 0 1 2\nsimp 1 0 1\n",
    "simp 0 0\nsimp 3 1\nsimp 2 0 1\n",
)

# make_simplicial inputs: several missing faces, several late ones, both
MAKE_SIMPLICIAL = (
    [((0, 1, 2, 3), 1.0)],
    [((2, 1, 0), 1.0), ((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((1, 2), 1.0)],
    [((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 2.0), ((0, 2), 3.0), ((1, 2), 1.0),
     ((0, 1, 2), 1.5)],
    [((0,), 5.0), ((1,), 6.0), ((0, 1), 1.0), ((2,), 0.0), ((0, 2), 0.0)],
    [((3,), 0.0), ((1,), 0.0), ((1, 3), 0.5), ((1, 3, 5), 0.5), ((5,), 0.0), ((3, 5), 0.75)],
    [((1,), 0.0), ((0,), 0.0), ((0, 1), 1.0), ((0, 0), 1.0)],
    [((1,), 0.0), ((0,), 1), ((1, 0), 1.0), ((0, 1), 2.0)],
    [((2,), 0.0), ((0,), 0.0), ((1,), 0.25), ((0, 2), 0.5), ((0, 1), 0.5), ((1, 2), 0.25)],
)


def _simplicial_cases():
    clouds = (["@circle8.pts", "--max-dim", "3"],
              ["@circle8.pts", "--max-dim", "4"],
              ["@circle8.pts", "--max-dim", "4", "--threshold", "1.5"],
              ["@circle8.pts", "--max-dim", "3", "--threshold", "0.5"],  # no edges
              ["@circle8.pts", "--max-dim", "2", "--threshold", "0"],
              ["--dist", "@d3.txt", "--max-dim", "3"],
              ["--dist", "@d3.txt", "--max-dim", "2", "--threshold", "1"],
              ["@two_points.pts", "--max-dim", "0"])
    for cloud in clouds:
        for field in FIELDS:
            rips = ["rips", *cloud, "--field", field]
            yield rips, None
            for fmt in ("text", "json"):
                yield ["barcode", "-", "--field", field, "--format", fmt], rips
            yield ["verify", "-", "--field", field], rips
    for text in SIMP_TEXTS:
        for field in FIELDS:
            yield ["barcode", "-", "--field", field], text
            yield ["verify", "-", "--field", field], text


def test_simplicial_output_matches_pinned_digest():
    # pins the simplicial front end (rips, simp files, make_simplicial's
    # errors) apart from GOLDEN; re-record it only when one of these outputs
    # is meant to change
    from spectra_persist.simplicial import make_simplicial
    h = hashlib.sha256()
    for argv, source in _simplicial_cases():
        if source is None or isinstance(source, str):
            stdin = source or ""
        else:
            stdin = _run(source)[1]
        h.update(repr((source, argv, *_run(argv, stdin))).encode())
    for entries in MAKE_SIMPLICIAL:
        try:
            fsc = make_simplicial(entries)
            outcome = (fsc.simplices, fsc.levels)
        except Exception as exc:  # the class and message are what is pinned
            outcome = (type(exc).__name__, str(exc))
        h.update(repr((entries, outcome)).encode())
    assert h.hexdigest() == SIMPLICIAL_GOLDEN


# JSON page tables for recover: one after blank lines, which it reads, and
# ones it refuses: a repeated key, an integer past int's digit limit, nesting
# past the recursion limit, and text that is not JSON
JSON_TABLES = (
    '\n  \n {"r_max": 2, "dims": [{"r": 1, "n": 0, "s": 0, "dim": 1},'
    ' {"r": 2, "n": 0, "s": 0, "dim": 1}, {"r": "inf", "n": 0, "s": 0, "dim": 1}]}\n',
    '{"r_max": 1, "r_max": 2, "dims": []}\n',
    '{"r_max": 2, "dims": [{"r": 1, "n": 0, "s": 0, "dim": 1, "dim": 2}]}\n',
    '{"r_max": ' + "1" * 5000 + ', "dims": []}\n',
    '{"r_max": 1, "dims": ' + "[" * 10_000 + "]" * 10_000 + "}\n",
    '{"r_max": 1, "dims": [\n',
)
FORMATS_GOLDEN = "2a1263448a7202fd9e2e388305897fb54bdb7eed82fb5344d1d741dae27e7bd9"


def _format_cases():
    """``betti``, ``pages`` with its default engine, and ``recover`` of JSON
    tables, which GOLDEN leaves out: (argv, the argv whose stdout is stdin, or
    stdin itself as a str, or None)."""
    for name in COMPLEXES:
        for field in FIELDS:
            for fmt in FORMATS:
                common = ["@" + name, "--field", field, "--format", fmt]
                yield ["betti", *common, "--n", "0", "--i", "0", "--j", "1"], None
                yield ["betti", *common, "--n", "1", "--i", "2", "--j", "5"], None
                yield ["betti", *common, "--n", "0", "--i", "2", "--j", "1"], None
                yield ["pages", *common], None
                yield ["pages", *common, "--r-max", "2"], None
    for fmt in FORMATS:
        yield (["recover", "-", "--format", fmt],
               ["pages", "@u_0_2_3.fcc", "--engine", "both", "--format", "json"])
        for text in JSON_TABLES:
            yield ["recover", "-", "--format", fmt], text


def test_format_outputs_match_pinned_digest():
    h = hashlib.sha256()
    for argv, source in _format_cases():
        stdin = source if isinstance(source, str) else "" if source is None else _run(source)[1]
        h.update(repr((source, argv, *_run(argv, stdin))).encode())
    assert h.hexdigest() == FORMATS_GOLDEN
