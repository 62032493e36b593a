#!/usr/bin/env python3
"""Record pins.json: for each input slot, digests of the inputs and final outputs.

    python3 perfbench/record_pins.py

Rerun only when a workload's inputs are meant to change.  Every output is
first checked against the benchmark's own references (Euler
characteristic, one degree-0 bar per point, "5/5 checks passed"), so a
wrong answer cannot be pinned.
"""
from __future__ import annotations

import json
import sys

from harness import (OUT, PINS_PATH, RIPS, RIPS_FIELDS, SLOTS, SRC, build_corpus,
                     check_barcode, check_report, cli_env, corpus_digest,
                     report_text, rips_input, run_pipeline, sha256)


def rips_pins(name: str, slot: int, env: dict) -> dict:
    spec = RIPS[name]
    inp = rips_input(name, slot)
    path = OUT / f"pins-{name}-{slot}.pts"
    path.write_text(inp.text, encoding="utf-8")
    outputs = {}
    for field in RIPS_FIELDS:
        _, out, problem = run_pipeline(path, inp, spec.command, field, env)
        digest = sha256(out)
        problem = problem or (check_barcode(out, inp, digest) if spec.command == "barcode"
                              else check_report(out, digest))
        if problem:
            raise SystemExit(f"{name} slot {slot} field {field}: {problem}")
        outputs[field] = digest
    path.unlink()
    return {"points_sha256": sha256(inp.text),
            "gens_by_degree": list(inp.gens_by_degree),
            "output_sha256": outputs}


def corpus_pins(sp, slot: int) -> dict:
    corpus = build_corpus(sp.random_complex, sp.field_from_text, slot)
    total, digest = corpus_digest(corpus)
    reports = {report_text(sp.verify(c, c.filtration_span + 1)) for c in corpus}
    report = reports.pop()
    if reports or check_report(report, sha256(report)):
        raise SystemExit(f"corpus slot {slot}: not every complex passes verify")
    return {"generators": total, "sha256": digest, "output_sha256": sha256(report)}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import spectra_persist as sp
    OUT.mkdir(parents=True, exist_ok=True)
    env = cli_env()
    slots = []
    for slot in range(SLOTS):
        entry = {name: rips_pins(name, slot, env) for name in RIPS}
        entry["corpus-verify"] = corpus_pins(sp, slot)
        slots.append(entry)
        print(f"slot {slot} recorded", file=sys.stderr)
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"slots": slots}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
