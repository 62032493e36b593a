"""Inputs, the CLI pipeline, output checks and statistics of the benchmark.

Nothing here imports ``spectra_persist``: the point clouds, the Rips
simplex counts and the output checks are computed by the benchmark itself,
so a defect in the library cannot vouch for its own output.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
PINS_PATH = BENCH_DIR / "pins.json"

# --seed picks one of SLOTS pinned input sets (seed mod SLOTS), so every
# seed's inputs and final outputs are checked against recorded digests.
SLOTS = 32

CORPUS_SIZE = 1000
CORPUS_FIELDS = ("2", "5", "32003", "q")
RIPS_FIELDS = ("2", "q")
FIELD_LABEL = {"2": "gf2", "5": "gf5", "32003": "gf32003", "q": "q"}
VERIFY_PASSED = "5/5 checks passed"


@dataclass(frozen=True)
class RipsSpec:
    """A point cloud of rows x cols jittered grid points and a fixed edge count.

    The threshold is the ``edges``-th smallest pairwise distance, so every
    seed yields the same number of edges and filtration levels (edges + 1);
    a fixed threshold would let the complex size swing by 15-25% between
    seeds, more than any bound the metrics could hold.
    """
    rows: int
    cols: int
    edges: int
    command: str  # the CLI command fed by ``rips``: "barcode" or "verify"


RIPS = {
    "rips-barcode": RipsSpec(rows=10, cols=10, edges=1732, command="barcode"),
    "rips-verify": RipsSpec(rows=5, cols=6, edges=201, command="verify"),
}
WORKLOADS = ("rips-barcode", "rips-verify", "corpus-verify")


def slot_of(seed: int) -> int:
    return seed % SLOTS


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


CLI = [sys.executable, "-m", "spectra_persist.cli"]
OP_TIMEOUT = 60.0
# probe-scaled op times are seconds at the speed where probe_seconds() is 10 ms
PROBE_REF_S = 0.010


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_pipeline(path, inp, command: str, field: str, env: dict) -> tuple:
    """Run ``rips path | <command> -`` with one field; (seconds, stdout, problem)."""
    rips_argv = CLI + ["rips", str(path), "--max-dim", "2",
                       "--threshold", repr(inp.threshold), "--field", field]
    final_argv = CLI + [command, "-", "--field", field]
    t0 = time.perf_counter()
    rips = subprocess.Popen(rips_argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env)
    final = None
    try:
        final = subprocess.Popen(final_argv, stdin=rips.stdout, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, env=env)
        rips.stdout.close()
        out, err = final.communicate(timeout=OP_TIMEOUT)
        rips.wait(timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, "", f"timeout after {OP_TIMEOUT:g} s"
    finally:
        for proc in (rips, final):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
    seconds = time.perf_counter() - t0
    if rips.returncode != 0:
        return seconds, "", f"rips exited {rips.returncode}"
    if final.returncode != 0:
        first = err.decode("utf-8", "replace").strip().splitlines()[:1]
        return seconds, "", f"{command} exited {final.returncode}: {''.join(first)[:200]}"
    return seconds, out.decode("utf-8", "replace"), ""


# -- Rips inputs -----------------------------------------------------------------

@dataclass(frozen=True)
class RipsInput:
    points: list          # list[(x, y)]
    threshold: float
    gens_by_degree: tuple  # simplices of dimension 0, 1, 2 within the threshold

    @property
    def text(self) -> str:
        return "".join(f"pt {x!r} {y!r}\n" for x, y in self.points)

    @property
    def generators(self) -> int:
        return sum(self.gens_by_degree)


def jittered_points(rng: random.Random, rows: int, cols: int) -> list:
    """One uniform point in each cell of a rows x cols grid over the unit square."""
    return [((i + rng.random()) / cols, (j + rng.random()) / rows)
            for j in range(rows) for i in range(cols)]


def rips_input(workload: str, slot: int) -> RipsInput:
    spec = RIPS[workload]
    pts = jittered_points(random.Random(f"{workload}:{slot}"), spec.rows, spec.cols)
    n = len(pts)
    dist = [[math.dist(a, b) for b in pts] for a in pts]
    threshold = sorted(dist[i][j] for i in range(n) for j in range(i + 1, n))[spec.edges - 1]
    nbrs = [{j for j in range(n) if j != i and dist[i][j] <= threshold} for i in range(n)]
    edges = sum(len(s) for s in nbrs) // 2
    triangles = sum(1 for i in range(n) for j in nbrs[i] if j > i
                    for k in nbrs[i] & nbrs[j] if k > j)
    return RipsInput(pts, threshold, (n, edges, triangles))


# -- random-complex corpus -----------------------------------------------------

def build_corpus(random_complex, field_from_text, slot: int) -> list:
    """The corpus through the public API: sizes 5-50, fields cycling GF(2), GF(5), GF(32003), Q."""
    rng = random.Random(f"corpus-verify:{slot}")
    fields = [field_from_text(tok) for tok in CORPUS_FIELDS]
    return [random_complex(rng, rng.randint(5, 50), fields[k % len(fields)])
            for k in range(CORPUS_SIZE)]


def corpus_digest(corpus) -> tuple:
    """(generator count, sha256) over a canonical dump of every complex."""
    h = hashlib.sha256()
    total = 0
    for c in corpus:
        h.update(f"field {c.field}\n".encode())
        for n in c.degrees():
            gens = c.gens(n)
            total += len(gens)
            h.update(f"deg {n} {[g.filtration for g in gens]}\n".encode())
            for g in gens:
                h.update(f"{[(r, str(v)) for r, v in c.column(n, g.gid)]}\n".encode())
    return total, h.hexdigest()


# -- output checks --------------------------------------------------------------

def check_barcode(text: str, inp: RipsInput, digest: str) -> str:
    """Return "" when a ``barcode`` output is right, else the reason it is not.

    Euler characteristic: the alternating sum of essential bars equals the
    alternating sum of generators.  Every point carries one degree-0 bar.
    """
    essential = 0
    degree0 = 0
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 4:
            return f"bad barcode line {line[:80]!r}"
        try:
            n, mult = int(parts[0]), int(parts[3])
        except ValueError:
            return f"bad barcode line {line[:80]!r}"
        if parts[2] == "inf":
            essential += (-1) ** n * mult
        if n == 0:
            degree0 += mult
    euler = sum((-1) ** n * g for n, g in enumerate(inp.gens_by_degree))
    if essential != euler:
        return f"essential bars give Euler characteristic {essential}, generators {euler}"
    if degree0 != len(inp.points):
        return f"{degree0} degree-0 bars for {len(inp.points)} points"
    if sha256(text) != digest:
        return "barcode differs from the pinned digest"
    return ""


def report_text(report) -> str:
    """What ``verify`` prints for a VerifyReport."""
    return "".join(line + "\n" for line in report.lines())


def check_report(text: str, digest: str) -> str:
    """Return "" when a ``verify`` report passed and matches its pin."""
    lines = text.splitlines()
    if not lines or lines[-1] != VERIFY_PASSED:
        return f"verify did not report {VERIFY_PASSED!r}"
    if sha256(text) != digest:
        return "verify report differs from the pinned digest"
    return ""


# -- statistics -----------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the samples at or below it."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no values")
    return s[_rank(q, len(s)) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-percentile."""
    return n - _rank(q, n) if n else 0


def _rank(q: float, n: int) -> int:
    # round first: 0.99 * 1000 must give rank 990, not 991
    return max(math.ceil(round(q * n, 9)), 1)


def probe_seconds() -> float:
    """Best of five runs of a fixed pure-Python task: the CPU's current speed.

    On a shared 2-vCPU Xeon VM the CPU's speed shifted by up to 30% between
    runs, on CPU time as much as on wall time, so op times are scaled by
    ``PROBE_REF_S / probe`` with the probe taken on the same CPU just before
    and after the ops.
    """
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        counts: dict = {}
        for i in range(40000):
            key = (i * 7919) % 10007
            counts[key] = counts.get(key, 0) + i
        sorted(counts.items(), key=lambda kv: kv[1] % 97)
        best = min(best, time.perf_counter() - t0)
    return best


def self_times(spans) -> list:
    """Self time of each span: its duration minus the time its children cover.

    ``spans`` is a sequence of (start, end, parent) with parent an index into
    it or -1.  Overlapping children count once and are clipped to the parent.
    """
    children: dict = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


class OpLog:
    """Durations and failures of the ops of one run, by field label.

    ``durations`` holds the reported seconds (wall times times a speed
    scale, see ``probe_seconds``) and ``wall`` the raw wall seconds.  A
    failed op keeps its duration in the samples and is counted in ``failed``.
    """

    def __init__(self):
        self.durations: dict = {}
        self.wall: dict = {}
        self.generators: dict = {}
        self.attempted = 0
        self.failed = 0
        self.first_failure = ""

    def record(self, field: str, wall: float, scale: float, generators: int,
               problem: str) -> None:
        self.durations.setdefault(field, []).append(wall * scale)
        self.wall.setdefault(field, []).append(wall)
        self.generators.setdefault(field, []).append(generators)
        self.attempted += 1
        if problem:
            self.failed += 1
            self.first_failure = self.first_failure or problem

    def all_durations(self) -> list:
        return [d for ds in self.durations.values() for d in ds]

    def gens_per_s(self) -> float:
        """Generators of one op of each field over the sum of the fields' median op times."""
        gens = sum(statistics.fmean(g) for g in self.generators.values())
        return gens / sum(statistics.median(d) for d in self.durations.values())
