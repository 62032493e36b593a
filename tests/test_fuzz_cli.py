"""Token-soup fuzz of every CLI command.

Each example feeds a few lines of tokens drawn from the input formats'
keywords, names, small integers, rationals and malformed numbers to one
command on stdin.  Whatever the input, the command must end with exit
code 0, 1 or 2, raise nothing, and write at most one line of at most 1000
bytes to stderr, however long the tokens it quotes.  Integers stay small
so that no input asks for a huge filtration span, whose page tables are
large by design.  Each command that takes ``--format`` also gets the soup
in every format, so that one that parses reaches each of the writer's
branches, and ``recover`` also gets JSON page tables near the ones
``pages`` writes.  ``rips`` also gets small clouds at any ``--max-dim`` up to
64 with no threshold, under a simplex cap and then a point cap, each lowered
so that some of the clouds hit it.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spectra_persist import simplicial
from spectra_persist.cli import main

# names and small integers are listed twice to draw them more often
TOKENS = (
    "gen", "bnd", "simp", "pt", "dist", "field", "#", "r_max", "inf", "-inf", "nan",
    "q", "Q",
    "a", "b", "c", "a", "b", "c", "x",
    "-2", "-1", "0", "1", "2", "3", "5", "0", "1", "2", "+1", "007",
    "1/2", "-3/4", "2/6", "1/0", "0/0", "1/-2", "/", "1/", "1/2/3",
    "0.5", "1e3", "1_000", "١", "１", "-0.25",
    # a long name, and a number past int's digit limit, which never parses:
    # an error line quotes either one shortened
    "x" * 2000, "1" * 5000,
)

# most lines open with a keyword of some input format, so that some inputs
# get past the first token
HEADS = ("gen", "bnd", "simp", "pt", "dist", "field", "# r_max", "1", "inf", "")
LINE = st.builds(lambda head, rest: " ".join([head, *rest]).strip(),
                 st.sampled_from(HEADS), st.lists(st.sampled_from(TOKENS), max_size=5))
LINES = st.lists(LINE, max_size=8).map(lambda lines: "\n".join(lines) + "\n")

COMMANDS = {
    "barcode": ["barcode", "-"],
    "pages": ["pages", "-", "--engine", "both"],
    "verify": ["verify", "-"],
    "rips": ["rips", "-", "--max-dim", "2"],
    "rips-dist": ["rips", "--dist", "-", "--max-dim", "2"],
    "recover": ["recover", "-"],
    "betti": ["betti", "-", "--n", "0", "--i", "0", "--j", "1"],
}


def _run(argv, stdin):
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
    return code, err.getvalue()


def assert_fails_closed(code, err):
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    assert err == "" or (err.count("\n") == 1 and err.endswith("\n")), err
    assert len(err.encode()) <= 1000


CASES = [(command, field) for command in COMMANDS if command != "recover"
         for field in ("2", "5", "q")] + [("recover", None)]  # tables carry no field


@pytest.mark.parametrize("command, field", CASES)
@settings(max_examples=25, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=LINES)
def test_cli_fails_closed_on_token_soup(command, field, text):
    argv = list(COMMANDS[command])
    if field is not None:
        argv += ["--field", field]
    assert_fails_closed(*_run(argv, text))


FORMAT_CASES = [(command, field, fmt) for command in ("barcode", "pages", "verify", "betti")
                for field in ("2", "q") for fmt in ("text", "json", "tsv")]
FORMAT_CASES += [("recover", None, fmt) for fmt in ("text", "json", "tsv")]


@pytest.mark.parametrize("command, field, fmt", FORMAT_CASES)
def test_cli_fails_closed_on_token_soup_in_every_format(command, field, fmt):
    # soup that parses reaches the writer's branch for fmt, which some
    # example must do
    outcomes = []

    @settings(max_examples=25, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=LINES)
    def fuzz(text):
        argv = [*COMMANDS[command], "--format", fmt]
        if field is not None:
            argv += ["--field", field]
        code, err = _run(argv, text)
        assert_fails_closed(code, err)
        outcomes.append(code)

    fuzz()
    assert 0 in outcomes, outcomes


# JSON page tables near the one pages writes: its keys, small integers and
# "inf", some cells left out or repeated, some values of the wrong type
CELL = st.fixed_dictionaries({"r": st.sampled_from([1, 2, 3, "inf"]), "n": st.integers(0, 1),
                              "s": st.integers(0, 2), "dim": st.integers(0, 2)})
SCALAR = st.one_of(st.integers(-1, 3), st.sampled_from(["inf", "1", None, True, 1.5]))
JSON_TABLES = st.one_of(
    st.fixed_dictionaries({"r_max": st.integers(1, 3), "dims": st.lists(CELL, max_size=6)}),
    st.dictionaries(st.sampled_from(["r_max", "dims", "format", "kind"]),
                    st.one_of(SCALAR, st.lists(st.one_of(CELL, SCALAR), max_size=3)),
                    max_size=4),
).map(json.dumps)


@pytest.mark.parametrize("fmt", ["text", "json", "tsv"])
def test_recover_fails_closed_on_json_tables(fmt):
    outcomes = []

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(text=JSON_TABLES)
    def fuzz(text):
        code, err = _run(["recover", "-", "--format", fmt], text)
        assert_fails_closed(code, err)
        outcomes.append(code)

    fuzz()
    assert {0, 1} <= set(outcomes), outcomes


# coordinates that mostly parse (listed twice), so that many clouds have
# enough points to pass a low cap, and a few that do not
VALID = ("0", "1", "2", "3", "-1", "0.5", "2.5", "1e3", "-0.25")
COORDS = (*VALID, *VALID, "nan", "x")
CLOUDS = st.lists(st.lists(st.sampled_from(COORDS), min_size=2, max_size=2),
                  max_size=8).map(lambda pts: "".join(f"pt {x} {y}\n" for x, y in pts))


def test_rips_fails_closed_at_any_max_dim():
    # 6 points make 41 simplices up to dimension 2, so a cap of 40 refuses
    # every cloud of 6 or more points at --max-dim 2 or above
    outcomes = []

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(text=CLOUDS, max_dim=st.integers(0, 64))
    def fuzz(text, max_dim):
        code, err = _run(["rips", "-", "--max-dim", str(max_dim)], text)
        assert_fails_closed(code, err)
        outcomes.append("capped" if "simplices at dimension" in err else code)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplicial, "RIPS_MAX", 40)
        fuzz()
    assert {"capped", 0} <= set(outcomes), outcomes


def test_rips_fails_closed_past_the_point_cap():
    # a cap of 5 points refuses every cloud of 6 to 8 points at its sixth
    # pt line, whatever the max dimension
    outcomes = []

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(text=CLOUDS, max_dim=st.integers(0, 64))
    def fuzz(text, max_dim):
        code, err = _run(["rips", "-", "--max-dim", str(max_dim)], text)
        assert_fails_closed(code, err)
        outcomes.append("capped" if "more than 5 points" in err else code)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplicial, "POINTS_MAX", 5)
        fuzz()
    assert {"capped", 0} <= set(outcomes), outcomes
