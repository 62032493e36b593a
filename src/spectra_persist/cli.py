"""Command-line front end.

Commands compose over pipes: every command reads "-" as standard input and
writes machine-readable text, TSV or JSON.  Exit codes: 0 success, 1 data
error (parse or validation failures, failed verification), 2 usage error.
"""
from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from itertools import islice
from math import inf as INF
from typing import TYPE_CHECKING

from .errors import (ClosureError, InvalidComplexError, PageTableError,
                     SHORT, ParseError, UsageError, shorten)
from .fields import _first_word, field_from_text, line_batches, parse_int

# ingest, simplicial, persistence, spectral, randomgen and json are imported
# by the commands that run them, and complexes by the readers that build one,
# so a process loads only what its command and its input need
if TYPE_CHECKING:
    from .complexes import FilteredChainComplex
    from .persistence import Barcode
    from .spectral import PageTable

JSON_FORMAT = "spectra-persist/1"


def _read_text(path: str) -> str:
    try:
        if path == "-":
            if sys.stdin is None:  # the process was started with stdin closed
                raise ParseError("cannot read -: standard input is closed")
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {shorten(path)}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {shorten(path)}: not UTF-8 text") from None


def _load_complex(args) -> FilteredChainComplex:
    # every command that reads a complex takes --random
    if args.random is not None and args.input is not None:
        raise UsageError("give either an input path or --random, not both")
    field = field_from_text(args.field)
    if args.random is not None:
        from random import Random

        from .randomgen import random_complex
        return random_complex(Random(args.seed), args.random, field)
    if args.input is None:
        raise UsageError("an input path (or '-') is required unless --random is given")
    text = _read_text(args.input)
    if _first_word(text) == "simp":
        from .simplicial import parse_simplicial, simplicial_to_chain
        return simplicial_to_chain(parse_simplicial(text), field)
    from .ingest import parse_complex
    return parse_complex(text, field)


# integer options, by dest, with the least value each takes; they arrive as
# text, because argparse's int also takes '1_0' and non-ASCII digits
_INT_OPTIONS = {"r_max": 1, "random": 0, "seed": None, "s_min": None, "max_dim": None,
               "n": None, "i": None, "j": None}
# the most generators --random builds: random_complex's time grows faster than
# linearly in them, about 0.5-0.8 s at 10,000 and 2.5-3.5 s at 30,000 (GF(2)-Q)
# on a 2-vCPU Xeon VM
RANDOM_MAX = 50_000


def _parse_int_options(args) -> None:
    for dest, least in _INT_OPTIONS.items():
        text = getattr(args, dest, None)
        if not isinstance(text, str):
            continue
        flag = "--" + dest.replace("_", "-")
        try:
            value = parse_int(text)
        except ValueError:
            raise UsageError(f"{flag} must be an integer, got {shorten(text)!r}") from None
        if least is not None and value < least:
            raise UsageError(f"{flag} must be >= {least}")
        if dest == "random" and value > RANDOM_MAX:
            raise UsageError(f"--random must be <= {RANDOM_MAX}")
        setattr(args, dest, value)


def _default_r_max(args, c: FilteredChainComplex) -> int:
    return c.filtration_span + 1 if args.r_max is None else args.r_max


def _emit(lines) -> None:
    """Write lines in batches as they come, so a long output is never held whole."""
    for batch in line_batches(lines):
        sys.stdout.write(batch)


class _Streamed(list):
    """A JSON array made by ``make()`` while it is encoded.  The pure-Python
    encoder, which ``indent`` selects, tests a list for truth and iterates it,
    so this one holds nothing (the C encoder would read its empty storage)."""

    def __init__(self, make):
        self._make = make

    def __iter__(self):
        return iter(self._make())

    def __bool__(self) -> bool:
        return any(True for _ in self._make())


def _emit_json(obj) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline, in batches as it is encoded."""
    import json
    chunks = json.JSONEncoder(indent=2).iterencode(obj)
    while batch := "".join(islice(chunks, 4096)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _table_json(p: PageTable) -> dict:
    """The JSON object of a page table, with the cells made as they are written."""
    return {"r_max": p.r_max, "dims": _Streamed(p.json_dims)}


def _emit_barcode(b: Barcode, fmt: str) -> None:
    """Write a barcode in the ``--format`` of ``barcode`` and ``recover``."""
    if fmt == "json":
        _emit_json({
            "format": JSON_FORMAT,
            "kind": "barcode",
            "entries": [
                {"n": e.degree, "s": e.birth,
                 "m": "inf" if e.is_essential else e.lifetime, "multiplicity": mult}
                for e, mult in b.entries()
            ],
        })
        return
    sep = "\t" if fmt == "tsv" else " "
    _emit(sep.join(map(str, (e.degree, e.birth, "inf" if e.is_essential else e.lifetime, mult)))
          for e, mult in b.entries())


def cmd_barcode(args) -> int:
    from .persistence import decompose
    c = _load_complex(args)
    _emit_barcode(decompose(c)[1], args.format)
    return 0


def cmd_pages(args) -> int:
    from .persistence import decompose
    from .spectral import pages_direct, pages_from_barcode
    c = _load_complex(args)
    r_max = _default_r_max(args, c)
    tables = {}
    if args.engine in ("barcode", "both"):
        _, b = decompose(c)
        tables["barcode"] = pages_from_barcode(b, r_max)
    if args.engine in ("direct", "both"):
        tables["direct"] = pages_direct(c, r_max)
    if args.engine != "both":
        table = tables[args.engine]
        if args.format == "json":
            _emit_json({"format": JSON_FORMAT, "kind": "pages", **_table_json(table)})
        else:
            _emit(table.to_lines("\t" if args.format == "tsv" else " "))
        return 0
    diff = tables["barcode"].diff(tables["direct"])
    if args.format == "json":
        obj = {
            "format": JSON_FORMAT,
            "kind": "pages-both",
            "barcode_engine": _table_json(tables["barcode"]),
            "direct_engine": _table_json(tables["direct"]),
            "diff": [
                {"r": "inf" if r == INF else r, "n": n, "s": s,
                 "barcode": a, "direct": b}
                for r, n, s, a, b in diff
            ],
        }
        _emit_json(obj)
    else:
        sep = "\t" if args.format == "tsv" else " "
        print("# engine: barcode")
        _emit(tables["barcode"].to_lines(sep))
        print("# engine: direct")
        _emit(tables["direct"].to_lines(sep))
        if diff:
            for r, n, s, a, b in diff:
                r_txt = "inf" if r == INF else str(r)
                print(f"DIFF: r={r_txt} n={n} s={s} barcode={a} direct={b}")
        else:
            print("DIFF: none")
    return 1 if diff else 0


def cmd_verify(args) -> int:
    from .spectral import verify
    c = _load_complex(args)
    r_max = _default_r_max(args, c)
    report = verify(c, r_max)
    if args.format == "json":
        obj = {
            "format": JSON_FORMAT,
            "kind": "report",
            "r_max": r_max,
            "checks": [
                {"name": ch.name, "passed": ch.passed, "detail": ch.detail}
                for ch in report.checks
            ],
        }
        _emit_json(obj)
    else:
        _emit(report.lines())
    return 0 if report.all_passed else 1


def cmd_rips(args) -> int:
    from .simplicial import _real, _simplicial_lines, parse_point_cloud, rips
    if args.dist is not None and args.input is not None:
        raise UsageError("give either an input path or --dist, not both")
    path = args.dist if args.dist is not None else args.input
    if path is None:
        raise UsageError("an input path (or '-') is required")
    if args.threshold is not None:
        try:
            args.threshold = _real(args.threshold)
        except ValueError:
            raise UsageError(
                f"--threshold must be a finite number, got {shorten(args.threshold)!r}"
            ) from None
    field = field_from_text(args.field)
    pc = parse_point_cloud(_read_text(path))
    fsc = rips(pc, args.max_dim, args.threshold)
    comments = [f"rips: {len(pc)} points, max_dim={args.max_dim}, "
                f"threshold={args.threshold}"]
    comments += [f"level {k} = {v}" for k, v in enumerate(fsc.levels)]
    # the reading stage validates the text; this one only writes it, as it is made
    _emit(_simplicial_lines(fsc, field, comments))
    return 0


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` for ``json.loads``: a repeated key is a ParseError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"bad page table JSON: repeated key {shorten(key)!r}")
            seen.add(key)
    return obj


def cmd_recover(args) -> int:
    import json

    from .spectral import PageTable, parse_page_table, recover_barcode
    text = _read_text(args.input)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad page table JSON: {exc}") from None
        except ParseError:  # a repeated key, from _unique_keys
            raise
        except ValueError:  # json reads integers with int, which caps their digits
            raise ParseError("bad page table JSON: an integer has too many digits") from None
        except RecursionError:
            raise ParseError("page table JSON is nested too deeply") from None
        table = PageTable.from_json_obj(obj)
    else:
        table = parse_page_table(text)
    s_min = args.s_min
    if s_min is None:
        support = table.support()
        s_min = min((s for _, s in support), default=0)
    _emit_barcode(recover_barcode(table, s_min), args.format)
    return 0


def cmd_betti(args) -> int:
    from .persistence import betti, decompose
    c = _load_complex(args)
    _, b = decompose(c)
    value = betti(b, args.n, args.i, args.j)
    if args.format == "json":
        _emit_json({"format": JSON_FORMAT, "kind": "betti",
                    "n": args.n, "i": args.i, "j": args.j, "value": value})
    else:
        print(value)
    return 0


# what an argparse message echoes of the command line: a string literal, as
# ``%r`` writes a value it rejects, or a long run of a raw argument, as in
# "ambiguous option: --f=…"
_ECHOED = (r"'(?:[^'\\]|\\.)*'" r'|"(?:[^"\\]|\\.)*"' rf"|[^\s'\"]{{{SHORT + 1},}}")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are UsageErrors, which ``main`` prints as
    one ``error: …`` line like any other; ``add_subparsers`` makes the
    sub-parsers of this class too.  Each long value the message quotes, and
    the list of unrecognized arguments, is cut by :func:`shorten`."""

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {shorten(' '.join(extra))}")
        return args

    def error(self, message):
        def cut(match):
            text = match[0]
            if text[0] in "'\"":  # a quoted value keeps its quotes
                return text[0] + shorten(text[1:-1]) + text[0]
            return shorten(text)
        # a raw argument may hold a line break; the error stays one line
        raise UsageError(re.sub(_ECHOED, cut, " ".join(message.splitlines())))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectra-persist",
        description="Barcodes and spectral-sequence pages of filtered chain complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_random=False, with_rmax=False):
        p.add_argument("input", nargs="?", help="input path, or '-' for stdin")
        p.add_argument("--field", default="2",
                       help="coefficient field: a prime, or 'q' (default 2)")
        p.add_argument("--format", choices=("text", "json", "tsv"), default="text")
        if with_rmax:
            p.add_argument("--r-max", default=None,
                           help="deepest page (default: filtration span + 1)")
        if with_random:
            p.add_argument("--random", metavar="N", default=None,
                           help="generate a random N-generator complex instead of reading input")
            p.add_argument("--seed", default=0)

    p = sub.add_parser("barcode", help="interval decomposition of a complex")
    add_common(p, with_random=True)
    p.set_defaults(func=cmd_barcode)

    p = sub.add_parser("pages", help="spectral-sequence page dimensions")
    add_common(p, with_random=True, with_rmax=True)
    p.add_argument("--engine", choices=("barcode", "direct", "both"), default="barcode")
    p.set_defaults(func=cmd_pages)

    p = sub.add_parser("verify", help="run the cross-checks between the two engines")
    add_common(p, with_random=True, with_rmax=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rips", help="Vietoris-Rips filtration of a point cloud")
    p.add_argument("input", nargs="?", help="point cloud path, or '-' for stdin")
    p.add_argument("--dist", default=None, metavar="PATH",
                   help="read a distance-matrix file instead")
    p.add_argument("--max-dim", default=1)
    p.add_argument("--threshold", default=None)  # text, read by _real like the data
    p.add_argument("--field", default="2")
    p.set_defaults(func=cmd_rips)

    p = sub.add_parser("recover", help="barcode from a serialized page table")
    p.add_argument("input", help="page table path, or '-' for stdin")
    p.add_argument("--s-min", default=None,
                   help="lowest birth level (default: lowest level in the table)")
    p.add_argument("--format", choices=("text", "json", "tsv"), default="text")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("betti", help="persistent Betti number from the barcode")
    add_common(p, with_random=True)
    p.add_argument("--n", required=True, help="homological degree")
    p.add_argument("--i", required=True, help="source level")
    p.add_argument("--j", required=True, help="target level")
    p.set_defaults(func=cmd_betti)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _parse_int_options(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left early (say, `| head`): send what is still buffered
        # to devnull, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, ClosureError, PageTableError, InvalidComplexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # only where the allocator refuses: an OOM kill ends the process
        print("error: out of memory", file=sys.stderr)
        return 1


def entry() -> None:
    # One command, then exit: the library builds no reference cycles, so the
    # cyclic collector would only rescan the generators, columns and tuples
    # ingest keeps alive.  main() called in-process leaves the collector on.
    gc.disable()
    # stdin decodes as a path is read, strictly, so bytes that are not UTF-8
    # end in _read_text's one error line (its default keeps them as surrogates)
    if sys.stdin is not None:
        sys.stdin.reconfigure(encoding="utf-8", errors="strict")
    sys.exit(main())


if __name__ == "__main__":
    entry()
