"""Tests of the benchmark's own helpers: statistics, output checks, failure counting, tracing."""
from __future__ import annotations

import json
from collections import Counter

import harness
import run
import tracer
from harness import (ROOT, OpLog, RipsInput, check_barcode, check_report,
                     percentile, samples_beyond, self_times, sha256)

TRIANGLE = RipsInput(points=[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], threshold=2.0,
                     gens_by_degree=(3, 3, 1))
TRIANGLE_BARCODE = "0 0 1 2\n0 0 inf 1\n"


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        (0, 100, -1),   # root
        (10, 30, 0),    # child
        (20, 40, 0),    # overlaps the first child: 10..40 counts once
        (90, 120, 0),   # runs past the root: only 90..100 counts
        (12, 18, 1),    # grandchild: charged to span 1, not to the root
    ]
    assert self_times(spans) == [60, 14, 20, 30, 6]


def test_percentile_is_nearest_rank_with_ten_samples_beyond_p99():
    values = list(range(1000, 0, -1))
    assert percentile(values, 0.99) == 990
    assert samples_beyond(1000, 0.99) == 10
    assert samples_beyond(999, 0.99) == 9
    assert percentile([7.0], 0.99) == 7.0
    assert samples_beyond(1, 0.99) == 0


def test_barcode_check_uses_euler_characteristic_points_and_digest():
    digest = sha256(TRIANGLE_BARCODE)
    assert check_barcode(TRIANGLE_BARCODE, TRIANGLE, digest) == ""
    assert "Euler" in check_barcode("0 0 1 2\n0 0 inf 1\n1 0 inf 1\n", TRIANGLE, digest)
    assert "degree-0" in check_barcode("0 0 1 1\n0 0 inf 1\n", TRIANGLE, digest)
    assert "pinned" in check_barcode("0 0 2 2\n0 0 inf 1\n", TRIANGLE, digest)
    assert "bad barcode line" in check_barcode("error: boom\n", TRIANGLE, digest)


def test_report_check_needs_all_five_checks_and_the_pin():
    good = "[PASS] a\n5/5 checks passed\n"
    assert check_report(good, sha256(good)) == ""
    assert check_report("[FAIL] a\n4/5 checks passed\n", sha256(good))
    assert "pinned" in check_report("[PASS] b\n5/5 checks passed\n", sha256(good))


def test_oplog_keeps_failed_ops_in_the_timings():
    log = OpLog()
    log.record("gf2", 1.0, 0.5, 10, "")
    log.record("gf2", 3.0, 0.5, 10, "wrong output")
    log.record("q", 4.0, 0.5, 30, "")
    assert (log.attempted, log.failed, log.first_failure) == (3, 1, "wrong output")
    assert log.wall["gf2"] == [1.0, 3.0]
    assert log.durations["gf2"] == [0.5, 1.5]
    assert log.gens_per_s() == (10 + 30) / (1.0 + 2.0)


def test_corrupted_cli_output_is_counted_as_a_failed_op(monkeypatch, tmp_path):
    """Drive timed_run over the rips-barcode workload with a fake pipeline."""
    inp = harness.rips_input("rips-barcode", 0)
    euler = inp.gens_by_degree[0] - inp.gens_by_degree[1] + inp.gens_by_degree[2]
    good = (f"0 0 1 {len(inp.points) - 1}\n0 0 inf 1\n"
            + (f"2 0 inf {euler - 1}\n" if euler > 1 else f"1 0 inf {1 - euler}\n"))
    pins = {"rips-barcode": {"points_sha256": sha256(inp.text),
                             "gens_by_degree": list(inp.gens_by_degree),
                             "output_sha256": {"2": sha256(good), "q": sha256(good)}}}
    corrupted = good.replace("0 0 inf 1", "0 0 inf 2")

    def fake_pipeline(path, inp, command, field, env):
        return 0.01, corrupted if field == "q" else good, ""
    monkeypatch.setattr(run, "run_pipeline", fake_pipeline)
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.timed_run(run.RipsWorkload("rips-barcode", 0, pins), seconds=0)
    # three set-ups with a GF(2) warm-up each, then one GF(2) and one Q op
    assert result["attempted"] == run.SETUP_REPEATS + 2
    assert result["failed"] == 1
    assert result["correct"] is False
    assert result["extra"]["fail_ratio"][0] == 1 / (run.SETUP_REPEATS + 2)
    assert result["extra"]["op_wall_s.q"][0] == 0.01


def test_benchmark_json_lists_the_traced_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = [{k: m[k] for k in ("name", "unit", "better")} for m in tracer.layer_metrics()]
    assert bench["per_layer"] == layers
    values = tracer.pass_values(tracer.Tracer(), Counter())
    assert set(values) | {"cli.startup_s", "trace.overhead_s"} == {m["name"] for m in layers}


def test_instrumentation_records_spans_and_restores_the_library():
    lib = tracer.Library()
    before = (lib.linalg.axpy, lib.spectral.decompose, lib.fields.PrimeField.add)
    text = (ROOT / "tests" / "fixtures" / "triangle.fcc").read_text()
    tr = tracer.Tracer()
    with tracer.instrumented(tr, lib):
        c = lib.ingest.parse_complex(text, lib.fields.field_from_text("2"))
        assert lib.spectral.verify(c, c.filtration_span + 1).all_passed
    assert (lib.linalg.axpy, lib.spectral.decompose, lib.fields.PrimeField.add) == before
    values = tracer.pass_values(tr, Counter())
    assert values["spectral.verify_s"] >= values["spectral.verify_self_s"] > 0
    assert values["persistence.decompose_s"] > 0
    assert values["linalg.columns_reduced"] >= values["linalg.pivots"] > 0
    assert values["fields.add_calls.gf2"] > 0 and values["fields.add_calls.q"] == 0


def test_every_input_slot_is_pinned():
    slots = harness.load_pins()["slots"]
    assert len(slots) == harness.SLOTS
    assert all(set(s) == set(harness.WORKLOADS) for s in slots)
