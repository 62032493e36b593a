"""Command-line front end.

Commands compose over pipes: every command reads "-" as standard input and
writes machine-readable text, TSV or JSON.  Exit codes: 0 success, 1 data
error (parse or validation failures, failed verification, a failed write),
2 usage error.

One writer owns stdout: ``_write`` builds the one JSON envelope or picks the
one separator, and ``_emit`` under it, which ``rips`` writes through too, is
the one place stdout is written, so a failed write is one error line.
"""
from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from itertools import chain, islice
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


class _OutputError(Exception):
    """A write to stdout failed, other than by a reader that left early."""


def _emit(pieces) -> None:
    """Write text pieces to stdout as they come, then flush it.  A failed write,
    or a closed stdout once there is something to write, is an _OutputError;
    a reader that left early stays a BrokenPipeError."""
    out = sys.stdout
    try:
        for piece in pieces:
            if out is None:  # the process was started with stdout closed
                raise _OutputError("standard output is closed")
            out.write(piece)
        if out is not None:
            out.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise _OutputError(exc.strerror or shorten(str(exc))) from None


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


def _write(args, kind: str, body, lines) -> None:
    """Write a command's result in its ``--format``: under json the envelope
    ``{"format": JSON_FORMAT, "kind": kind, **body()}``, encoded in batches as
    it is written; otherwise the lines of ``lines(sep)``, ``sep`` a tab for tsv
    and a blank for text.  Only the format asked for is built."""
    if args.format == "json":
        import json
        chunks = json.JSONEncoder(indent=2).iterencode(
            {"format": JSON_FORMAT, "kind": kind, **body()})
        _emit(chain(iter(lambda: "".join(islice(chunks, 4096)), ""), ["\n"]))
    else:
        _emit(line_batches(lines("\t" if args.format == "tsv" else " ")))


def _shown(value):
    """A page or a lifetime as written: ``inf``, or the integer."""
    return "inf" if value == INF else value


def _table_json(p: PageTable) -> dict:
    """The JSON object of a page table, with the cells made as they are written."""
    return {"r_max": p.r_max, "dims": _Streamed(p.json_dims)}


def _write_barcode(args, b: Barcode) -> None:
    """Write a barcode, as ``barcode`` and ``recover`` do."""
    _write(args, "barcode",
           lambda: {"entries": [{"n": e.degree, "s": e.birth, "m": _shown(e.lifetime),
                                 "multiplicity": mult} for e, mult in b.entries()]},
           lambda sep: (sep.join(map(str, (e.degree, e.birth, _shown(e.lifetime), mult)))
                        for e, mult in b.entries()))


def cmd_barcode(args) -> int:
    from .persistence import decompose
    c = _load_complex(args)
    _write_barcode(args, decompose(c)[1])
    return 0


def cmd_pages(args) -> int:
    from .persistence import decompose
    from .spectral import pages_direct, pages_from_barcode
    c = _load_complex(args)
    r_max = _default_r_max(args, c)
    tables = {}
    if args.engine != "direct":
        tables["barcode"] = pages_from_barcode(decompose(c)[1], r_max)
    if args.engine != "barcode":
        tables["direct"] = pages_direct(c, r_max)
    if args.engine != "both":
        table = tables[args.engine]
        _write(args, "pages", lambda: _table_json(table), table.to_lines)
        return 0
    diff = tables["barcode"].diff(tables["direct"])

    def lines(sep):
        for engine in ("barcode", "direct"):
            yield f"# engine: {engine}"
            yield from tables[engine].to_lines(sep)
        yield from [f"DIFF: r={_shown(r)} n={n} s={s} barcode={a} direct={b}"
                    for r, n, s, a, b in diff] or ["DIFF: none"]

    _write(args, "pages-both",
           lambda: {"barcode_engine": _table_json(tables["barcode"]),
                    "direct_engine": _table_json(tables["direct"]),
                    "diff": [{"r": _shown(r), "n": n, "s": s, "barcode": a, "direct": b}
                             for r, n, s, a, b in diff]},
           lines)
    return 1 if diff else 0


def cmd_verify(args) -> int:
    from .spectral import verify
    c = _load_complex(args)
    r_max = _default_r_max(args, c)
    report = verify(c, r_max)
    _write(args, "report",
           lambda: {"r_max": r_max, "checks": [ch._asdict() for ch in report.checks]},
           lambda sep: report.lines())
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
    _emit(line_batches(_simplicial_lines(fsc, field, comments)))
    return 0


def cmd_recover(args) -> int:
    from .spectral import parse_page_table, recover_barcode
    table = parse_page_table(_read_text(args.input))
    s_min = args.s_min
    if s_min is None:
        s_min = min((s for _, s in table.support()), default=0)
    _write_barcode(args, recover_barcode(table, s_min))
    return 0


def cmd_betti(args) -> int:
    from .persistence import betti, decompose
    c = _load_complex(args)
    value = betti(decompose(c)[1], args.n, args.i, args.j)
    _write(args, "betti", lambda: {"n": args.n, "i": args.i, "j": args.j, "value": value},
           lambda sep: [str(value)])
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
        return args.func(args)
    except (BrokenPipeError, _OutputError) as exc:
        # send what is still buffered to devnull, so that the flush at exit
        # does not fail again; a reader that left early (say, `| head`) is
        # owed no error line
        try:
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        except (AttributeError, OSError, ValueError):  # closed, or an in-process sink
            pass
        if isinstance(exc, _OutputError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
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
