#!/usr/bin/env python3
"""Benchmark of spectra-persist: seeded workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload rips-barcode --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, one op at a time):

* rips-barcode: ``rips pts --max-dim 2 | barcode -`` on 100 planar points,
  alternating GF(2) and Q.  Text ingest, validation and ``decompose``.
* rips-verify: ``rips pts --max-dim 2 | verify -`` on 30 points at the
  default ``--r-max``, alternating GF(2) and Q.  The page engines, barcode
  recovery and the verify identities.
* corpus-verify: in-process ``verify(c, span + 1)`` over 1000 small random
  complexes cycling GF(2), GF(5), GF(32003) and Q.  Fixed per-call costs.

The points are one per cell of a 10x10 (6x5) grid over the unit square and
the threshold is the 1732nd (201st) smallest distance, so every seed gives
1733 (202) levels.  ``--seed`` selects input slot ``seed % 32``; each slot's
inputs and final outputs are pinned in pins.json.

End-to-end metrics (JSON line; an op is one pipeline or one corpus complex):
``setup_s`` median over three set-ups (inputs, pin checks, one warm-up op;
the first also covers harness start-up), ``op_s.gf2`` and ``op_s.q`` median
seconds per op of that field, ``gens_per_s`` input generators per second of
op time (one op of each field over the sum of the fields' median op times),
``peak_rss_mb`` the largest RSS of any process running the ops.
The stderr table adds ``op_s.gf5``, ``op_s.gf32003`` and the nearest-rank
``op_p99_s`` (only with at least ten samples beyond it, i.e. on the corpus),
the raw ``setup_wall_s`` and ``op_wall_s.*``, and ``fail_ratio``: failed over
attempted ops, where a nonzero exit, a wrong output or a timeout fails an op.

A shared machine's speed can shift by up to 30% between runs, so the
harness and every process it starts are pinned to one CPU, and each set-up
and each op (each block of 200 corpus ops) is scaled by ``PROBE_REF_S /
probe``, with a fixed pure-Python probe timed just before and after it on
that CPU: times are seconds at the speed where the probe takes 10 ms.  Over
ten seeds on a shared 2-vCPU Xeon VM this cut the spread of the op medians
from 11-25% (raw wall time) to 4-14%.

Both pipeline stages get the same ``--field``: a mismatched pair either
fails with an error line that grows with the input or, for two odd primes,
exits 0 with a wrong barcode.  Only the final stage's output is checked,
never the bytes ``rips`` emits, so a change of the serialized format does
not break the benchmark.

``--trace 0`` times the ops and prints the end-to-end metrics; ``--trace 1``
replays the same steps in-process with every layer's public functions
wrapped (see tracer.py) and prints the per-layer metrics.  ``--workload all``
runs the three workloads one after another and prints every metric.
"""
from __future__ import annotations

import time

HARNESS_START = time.perf_counter()

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys

from harness import (CORPUS_FIELDS, FIELD_LABEL, OP_TIMEOUT, OUT, PROBE_REF_S,
                     RIPS, RIPS_FIELDS, SRC, WORKLOADS, OpLog, build_corpus,
                     check_barcode, check_report, cli_env, corpus_digest,
                     load_pins, percentile, probe_seconds, report_text,
                     rips_input, run_pipeline, samples_beyond, sha256, slot_of)

SETUP_REPEATS = 3
P99 = 0.99


# -- workloads ---------------------------------------------------------------

class RipsWorkload:
    block = 1  # ops between two speed probes

    def __init__(self, name: str, slot: int, pins: dict):
        self.name = name
        self.spec = RIPS[name]
        self.slot = slot
        self.pins = pins[name]
        self.env = cli_env()
        self.fields = RIPS_FIELDS

    def setup(self) -> str:
        """Generate, pin-check and write the point cloud, then one warm-up op."""
        self.inp = rips_input(self.name, self.slot)
        text = self.inp.text
        OUT.mkdir(parents=True, exist_ok=True)
        self.path = OUT / f"{self.name}-{self.slot}.pts"
        self.path.write_text(text, encoding="utf-8")
        if (sha256(text) != self.pins["points_sha256"]
                or list(self.inp.gens_by_degree) != self.pins["gens_by_degree"]):
            return "the point cloud differs from its pin"
        _, problem = self.op(0)
        return problem

    def op(self, k: int) -> tuple:
        field = self.fields[k % len(self.fields)]
        seconds, out, problem = run_pipeline(self.path, self.inp, self.spec.command,
                                             field, self.env)
        if not problem:
            digest = self.pins["output_sha256"][field]
            if self.spec.command == "barcode":
                problem = check_barcode(out, self.inp, digest)
            else:
                problem = check_report(out, digest)
        return seconds, problem

    def label(self, k: int) -> str:
        return FIELD_LABEL[self.fields[k % len(self.fields)]]

    def generators(self, k: int) -> int:
        return self.inp.generators

    def peak_rss_mb(self) -> float:
        # the largest RSS of any child process waited for (KiB on Linux)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6


class CorpusWorkload:
    name = "corpus-verify"
    block = 200  # ops between two speed probes, about 0.6 s

    def __init__(self, slot: int, pins: dict):
        self.slot = slot
        self.pins = pins["corpus-verify"]
        self.fields = CORPUS_FIELDS

    def setup(self) -> str:
        """Import the package afresh, build and pin-check the corpus, one warm-up op."""
        for mod in [m for m in sys.modules if m.split(".")[0] == "spectra_persist"]:
            del sys.modules[mod]
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        sp = importlib.import_module("spectra_persist")
        self.verify = sp.verify
        self.corpus = None  # let the previous corpus go before building the next
        self.corpus = build_corpus(sp.random_complex, sp.field_from_text, self.slot)
        total, digest = corpus_digest(self.corpus)
        if total != self.pins["generators"] or digest != self.pins["sha256"]:
            return (f"corpus differs from its pin: {total} generators, digest "
                    f"{digest[:12]} (pinned {self.pins['generators']}, "
                    f"{self.pins['sha256'][:12]})")
        _, problem = self.op(0)
        return problem

    def op(self, k: int) -> tuple:
        c = self.corpus[k % len(self.corpus)]
        t0 = time.perf_counter()
        report = self.verify(c, c.filtration_span + 1)
        seconds = time.perf_counter() - t0
        problem = check_report(report_text(report), self.pins["output_sha256"])
        if not problem and seconds > OP_TIMEOUT:
            problem = f"timeout: {seconds:.1f} s"
        return seconds, problem

    def label(self, k: int) -> str:
        return FIELD_LABEL[self.fields[k % len(self.fields)]]

    def generators(self, k: int) -> int:
        return self.corpus[k % len(self.corpus)].total_gens()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def make_workload(name: str, slot: int, pins: dict):
    return CorpusWorkload(slot, pins) if name == "corpus-verify" else RipsWorkload(name, slot, pins)


# -- the timed run -------------------------------------------------------------

def timed_run(workload, seconds: float) -> dict:
    setups = []
    problems = []
    start = HARNESS_START
    setups_wall = []
    for _ in range(SETUP_REPEATS):
        problem = workload.setup()
        setups_wall.append(time.perf_counter() - start)
        setups.append(setups_wall[-1] * PROBE_REF_S / probe_seconds())
        if problem:
            problems.append(f"setup: {problem}")
        start = time.perf_counter()
    # each set-up ends in one warm-up op, which counts as attempted
    attempted = len(setups)
    failed = len(problems)

    log = OpLog()
    n_fields = len(workload.fields)
    k = 0
    t_begin = time.perf_counter()
    # every field gets at least one op, whatever --seconds is
    while k < n_fields or time.perf_counter() - t_begin < seconds:
        before = probe_seconds()
        block = [(j, *workload.op(j)) for j in range(k, k + workload.block)]
        k += workload.block
        scale = PROBE_REF_S / ((before + probe_seconds()) / 2)
        for j, dt, problem in block:
            log.record(workload.label(j), dt, scale, workload.generators(j), problem)
    if log.first_failure:
        problems.append(log.first_failure)
    attempted += log.attempted
    failed += log.failed

    samples = log.all_durations()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.gf2": (statistics.median(log.durations["gf2"]), "s"),
        "op_s.q": (statistics.median(log.durations["q"]), "s"),
        "gens_per_s": (log.gens_per_s(), "1/s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    extra = {f"op_s.{label}": (statistics.median(ds), "s")
             for label, ds in log.durations.items() if label not in ("gf2", "q")}
    extra["setup_wall_s"] = (statistics.median(setups_wall), "s")
    extra.update({f"op_wall_s.{label}": (statistics.median(ds), "s")
                  for label, ds in log.wall.items()})
    if samples_beyond(len(samples), P99) >= 10:
        extra["op_p99_s"] = (percentile(samples, P99), "s")
    extra["fail_ratio"] = (failed / attempted, "1")
    notes = [f"ops: {len(samples)} ("
             + ", ".join(f"{label} {len(ds)}" for label, ds in log.durations.items()) + ")",
             f"p99 rule: nearest rank, {samples_beyond(len(samples), P99)} samples beyond it",
             f"set-ups: {', '.join(f'{s:.3f}' for s in setups_wall)} s wall"]
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "extra": extra, "notes": notes + problems}


# -- output ----------------------------------------------------------------------

def print_table(name: str, result: dict, stream) -> None:
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", file=stream)
    for metrics in (result["metrics"], result.get("extra", {})):
        for key, (value, unit) in metrics.items():
            print(f"  {key:36s} {value:>16.6g} {unit}", file=stream)
    for note in result.get("notes", ()):
        print(f"  # {note}", file=stream)


def result_json(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and imports stay separate."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        one = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        for key, m in one["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spectra_persist" / "__init__.py").is_file():
        print(f"error: no spectra_persist package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # one CPU for this process and every process it starts, so the speed
    # probe measures the CPU the ops run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    slot = slot_of(args.seed)
    pins = load_pins()["slots"][slot]
    workload = make_workload(args.workload, slot, pins)
    if args.trace:
        import tracer
        result = tracer.trace_run(workload, args.seconds, args.seed)
    else:
        result = timed_run(workload, args.seconds)
    print_table(f"{args.workload} seed {args.seed} (input slot {slot})", result, sys.stderr)
    print(result_json(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
