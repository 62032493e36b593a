"""Traced in-process replay of a workload, for the per-layer metrics.

The replay repeats what one pass of the workload does, calling the
library's public functions directly: for the Rips workloads the stages of
the CLI pipeline (parse the points, build Rips, build and serialize the
chain complex, parse it back, then ``decompose`` or ``verify``), for the
corpus the ``random_complex`` build and one ``verify`` per complex.  It runs
once untraced and once with every wrapped function recording a span; the
difference is the tracing overhead.  Timed runs never load this module.

Functions are wrapped where their callers look them up: ``axpy`` in
``linalg``, ``complexes`` and ``randomgen``; the ``ColumnReducer`` and
``FieldSpec`` methods on their classes; the names ``spectral`` imports.
Spans live in flat arrays and are written out, gzipped, when the run ends.
"""
from __future__ import annotations

import gzip
import importlib
import json
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

from harness import (BENCH_DIR, CLI, OUT, ROOT, SRC, build_corpus,
                     check_barcode, check_report, cli_env, corpus_digest,
                     report_text, self_times)

STARTUP_RUNS = 5
EMPTY_COMPLEX = ROOT / "tests" / "fixtures" / "empty.fcc"
# metrics that count the spans of one wrapped function
SPAN_COUNTS = {"linalg.axpy_calls": "linalg.axpy",
               "linalg.columns_reduced": "linalg.reduce",
               "linalg.pivots": "linalg.add_pivot"}
FIELD_METHODS = ("add", "mul", "inv")


def layer_metrics() -> list:
    with open(BENCH_DIR / "layers.json", encoding="utf-8") as fh:
        return json.load(fh)["metrics"]


class Tracer:
    """Spans as parallel arrays (name id, start, end, parent index, op id) plus counters."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self.field_calls = {m: Counter() for m in FIELD_METHODS}
        self.tables: list = []

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return traced

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            names = self.names
            for nid, s, e, p, o in zip(self.name, self.start, self.end, self.parent, self.op):
                fh.write(f"{names[nid]}\t{s}\t{e}\t{p}\t{o}\n")


class NoTrace:
    """Stands in for a Tracer in the untraced replay."""
    op_id = -1

    @staticmethod
    def span(name: str):
        return nullcontext()


class Library:
    """The package's modules, imported after the workload's own set-up."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for mod in ("complexes", "fields", "ingest", "linalg", "persistence",
                    "randomgen", "spectral"):
            setattr(self, mod, importlib.import_module(f"spectra_persist.{mod}"))


@contextmanager
def instrumented(tr: Tracer, lib: Library):
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def span(owner, attr, name):
        patch(owner, attr, tr.wrap(name, getattr(owner, attr)))

    counts = tr.counts
    for fn in ("parse_point_cloud", "rips", "simplicial_to_chain",
               "serialize_complex", "parse_complex"):
        span(lib.ingest, fn, f"ingest.{fn}")

    cx = lib.complexes.FilteredChainComplex
    span(cx, "associated_graded", "complexes.associated_graded")
    span(cx, "homology_dim", "complexes.homology_dim")
    for owner in (lib.complexes, lib.spectral):
        span(owner, "homology_dims_by_level", "complexes.homology_dims_by_level")

    axpy = tr.wrap("linalg.axpy", lib.linalg.axpy)

    def counted_axpy(field, target, c, source):
        counts["linalg.axpy_entries"] += len(target) + len(source)
        out = axpy(field, target, c, source)
        if len(out) > counts["linalg.max_column_len"]:
            counts["linalg.max_column_len"] = len(out)
        return out
    for owner in (lib.linalg, lib.complexes, lib.randomgen):
        patch(owner, "axpy", counted_axpy)

    reducer = lib.linalg.ColumnReducer
    init = reducer.__init__

    def counted_init(self, field):
        counts["linalg.sweeps"] += 1
        init(self, field)
    patch(reducer, "__init__", counted_init)
    span(reducer, "reduce", "linalg.reduce")
    span(reducer, "add_pivot", "linalg.add_pivot")

    for meth in FIELD_METHODS:
        tally = tr.field_calls[meth]
        prime_fn = getattr(lib.fields.PrimeField, meth)
        rational_fn = getattr(lib.fields.RationalField, meth)

        def prime(self, *args, _fn=prime_fn, _tally=tally):
            _tally[f"gf{self.p}"] += 1
            return _fn(self, *args)

        def rational(self, *args, _fn=rational_fn, _tally=tally):
            _tally["q"] += 1
            return _fn(self, *args)
        patch(lib.fields.PrimeField, meth, prime)
        patch(lib.fields.RationalField, meth, rational)

    decompose = tr.wrap("persistence.decompose", lib.persistence.decompose)

    def counted_decompose(c):
        pairing, barcode = decompose(c)
        counts["persistence.pairs"] += len(pairing.pairs)
        return pairing, barcode
    for owner in (lib.persistence, lib.spectral):
        patch(owner, "decompose", counted_decompose)

    pages_direct = tr.wrap("spectral.pages_direct", lib.spectral.pages_direct)

    def kept_pages_direct(c, r_max):
        table = pages_direct(c, r_max)
        tr.tables.append(table)
        return table
    patch(lib.spectral, "pages_direct", kept_pages_direct)
    for fn in ("pages_from_barcode", "recover_barcode", "verify"):
        span(lib.spectral, fn, f"spectral.{fn}")
    for fn in ("betti", "multiplicity"):
        span(lib.spectral, fn, f"persistence.{fn}")

    table_cls = lib.spectral.PageTable
    row_total = table_cls.row_total

    def counted_row_total(self, r, n):
        counts["spectral.row_total_calls"] += 1
        return row_total(self, r, n)
    patch(table_cls, "row_total", counted_row_total)
    span(table_cls, "diff", "spectral.diff")
    span(lib.randomgen, "random_complex", "randomgen.random_complex")
    try:
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


# -- replays ---------------------------------------------------------------------

def barcode_text(b) -> str:
    """The ``barcode`` command's text output, from the public Barcode API."""
    return "".join(
        f"{e.degree} {e.birth} {'inf' if e.is_essential else e.lifetime} {mult}\n"
        for e, mult in b.entries())


def fresh_copy(lib: Library, c):
    # validate() caches its result, so time it on a copy that has not run it
    return lib.complexes.FilteredChainComplex(c.field, c.generators, c.boundary)


def complex_sizes(c) -> Counter:
    return Counter({"complexes.generators": c.total_gens(),
                    "complexes.nnz": sum(len(col) for cols in c.boundary.values()
                                         for col in cols)})


def replay_rips(w, lib: Library, tr) -> tuple:
    problems, sizes = [], Counter()
    inp = w.inp
    for op_id, token in enumerate(w.fields):
        tr.op_id = op_id
        with tr.span("op"):
            field = lib.fields.field_from_text(token)
            pc = lib.ingest.parse_point_cloud(inp.text)
            fsc = lib.ingest.rips(pc, 2, inp.threshold)
            c = lib.ingest.simplicial_to_chain(fsc, field)
            comments = [f"rips: {len(pc)} points, max_dim=2, threshold={inp.threshold}"]
            comments += [f"level {k} = {v}" for k, v in enumerate(fsc.levels)]
            text = lib.ingest.serialize_complex(c, comments)
            parsed = lib.ingest.parse_complex(text, field)
            if w.spec.command == "barcode":
                out = barcode_text(lib.persistence.decompose(parsed)[1])
            else:
                report = lib.spectral.verify(parsed, parsed.filtration_span + 1)
                out = report_text(report)
        copy = fresh_copy(lib, parsed)
        with tr.span("complexes.validate"):
            copy.validate()
        digest = w.pins["output_sha256"][token]
        problem = (check_barcode(out, inp, digest) if w.spec.command == "barcode"
                   else check_report(out, digest))
        if problem:
            problems.append(f"{w.label(op_id)}: {problem}")
        sizes["ingest.lines"] += inp.text.count("\n") + text.count("\n")
        sizes["ingest.simplices"] += len(fsc.simplices)
        sizes += complex_sizes(parsed)
    return len(w.fields), problems, sizes


def replay_corpus(w, lib: Library, tr) -> tuple:
    problems, sizes = [], Counter()
    with tr.span("setup"):
        corpus = build_corpus(lib.randomgen.random_complex,
                              lib.fields.field_from_text, w.slot)
    if corpus_digest(corpus) != (w.pins["generators"], w.pins["sha256"]):
        problems.append("corpus differs from its pin")
    for k, c in enumerate(corpus):
        tr.op_id = k
        with tr.span("op"):
            report = lib.spectral.verify(c, c.filtration_span + 1)
        copy = fresh_copy(lib, c)
        with tr.span("complexes.validate"):
            copy.validate()
        problem = check_report(report_text(report), w.pins["output_sha256"])
        if problem:
            problems.append(f"complex {k}: {problem}")
        sizes += complex_sizes(c)
    return len(corpus), problems, sizes


# -- metrics -----------------------------------------------------------------------

def verify_self_ns(tr: Tracer) -> int:
    """Total self time of the ``spectral.verify`` spans."""
    vid = tr.name_ids.get("spectral.verify")
    if vid is None:
        return 0
    local = {i: k for k, i in enumerate(i for i, nid in enumerate(tr.name) if nid == vid)}
    spans = [(tr.start[i], tr.end[i], -1) for i in local]
    for i, p in enumerate(tr.parent):
        if p in local:
            spans.append((tr.start[i], tr.end[i], local[p]))
    return sum(self_times(spans)[:len(local)])


def pass_values(tr: Tracer, sizes: Counter) -> dict:
    """Every per-layer value of one traced pass, except startup and overhead."""
    durations: Counter = Counter()
    calls: Counter = Counter()
    names = tr.names
    for nid, s, e in zip(tr.name, tr.start, tr.end):
        durations[names[nid]] += e - s
        calls[names[nid]] += 1
    values = {}
    for m in layer_metrics():
        name = m["name"]
        if name in ("cli.startup_s", "trace.overhead_s"):
            continue
        if name == "spectral.verify_self_s":
            values[name] = verify_self_ns(tr) / 1e9
        elif name == "trace.spans":
            values[name] = len(tr.start)
        elif name == "spectral.cells":
            values[name] = sum(len(t.cells()) for t in tr.tables)
        elif name == "linalg.useful_reduce_ratio":
            reduced = calls["linalg.reduce"]
            values[name] = calls["linalg.add_pivot"] / reduced if reduced else 0.0
        elif name in SPAN_COUNTS:
            values[name] = calls[SPAN_COUNTS[name]]
        elif name.startswith("fields."):
            _, meth_calls, label = name.split(".")
            values[name] = tr.field_calls[meth_calls[:-len("_calls")]][label]
        elif m["unit"] == "s":
            values[name] = durations[name[:-len("_s")]] / 1e9
        else:
            values[name] = tr.counts[name] + sizes[name]
    return values


def cli_startup_s() -> tuple:
    """Median wall time of ``barcode`` on an empty complex, interpreter start included."""
    env = cli_env()
    times = []
    for _ in range(STARTUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(CLI + ["barcode", str(EMPTY_COMPLEX)], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, env=env, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout:
            return statistics.median(times), f"barcode on {EMPTY_COMPLEX.name} failed"
    return statistics.median(times), ""


def trace_run(w, seconds: float, seed: int) -> dict:
    problems = []
    problem = w.setup()
    if problem:
        problems.append(f"setup: {problem}")
    lib = Library()
    replay = replay_corpus if w.name == "corpus-verify" else replay_rips
    startup, problem = cli_startup_s()
    if problem:
        problems.append(problem)

    passes, untraced, traced = [], [], []
    attempted = 2  # the set-up's warm-up op and the startup runs
    failed = len(problems)
    t_begin = time.perf_counter()
    while not passes or time.perf_counter() - t_begin < seconds:
        t0 = time.perf_counter()
        n_ops, probs, _ = replay(w, lib, NoTrace())
        untraced.append(time.perf_counter() - t0)
        attempted += n_ops
        failed += len(probs)
        problems += probs

        tr = Tracer()
        with instrumented(tr, lib):
            t0 = time.perf_counter()
            n_ops, probs, sizes = replay(w, lib, tr)
            traced.append(time.perf_counter() - t0)
        attempted += n_ops
        failed += len(probs)
        problems += probs
        passes.append(pass_values(tr, sizes))

    values = {}
    units = {m["name"]: m["unit"] for m in layer_metrics()}
    for name in passes[0]:
        if units[name] == "s":
            values[name] = statistics.median(p[name] for p in passes)
        else:
            values[name] = passes[0][name]
            if any(p[name] != values[name] for p in passes):
                problems.append(f"{name} differs between passes")
    values["cli.startup_s"] = startup
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"trace-{w.name}-seed{seed}.tsv.gz"
    tr.write(spans_path)
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in layer_metrics()}
    notes = [f"passes: {len(passes)}; untraced {statistics.median(untraced):.3f} s, "
             f"traced {statistics.median(traced):.3f} s per pass",
             f"spans of the last pass: {spans_path.relative_to(ROOT)}"]
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes + problems[:5]}
