#!/usr/bin/env python3
"""Self-test of the benchmark: corrupted outputs count as failures.

    python3 layerbench/selftest.py

Runs each cli-cold call once and requires its check to pass on the real
output and to fail on corrupted copies of it; requires a non-zero exit and
a changed output for a repeated input to fail too; then runs a short
audit-sweep with and without corrupted outputs and requires an error rate
of 0 and 1.  Last, it checks that BENCHMARK.json names the workloads and
metrics that run.py reports.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import sys

import run


def _edit_json(output: bytes, edit) -> bytes:
    doc = json.loads(output)
    edit(doc)
    return json.dumps(doc, indent=2).encode("utf-8") + b"\n"


def _rows(doc: dict) -> list[dict]:
    return doc["audit"]["entries"] if "audit" in doc else doc["intervals"]


def _upper_above_one(doc: dict) -> None:
    _rows(doc)[0]["upper"] = 1.5


def _oracle_drifts(doc: dict) -> None:
    row = next(r for r in _rows(doc) if r["method"] == "oracle")
    row["lower"] = row["lower"] + 1e-6 if row["lower"] + 1e-6 <= row["upper"] else row["lower"] - 1e-6


def _demo_not_ok(doc: dict) -> None:
    doc["ok"] = False


def _estimate_off_by_an_ulp(doc: dict) -> None:
    key = next(iter(doc["response"]))
    doc["response"][key] = math.nextafter(doc["response"][key], 0.0)


def _truncated(output: bytes) -> bytes:
    return output[: len(output) // 2]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    failures: list[str] = []

    def expect(condition: bool, what: str) -> None:
        print(("ok    " if condition else "FAIL  ") + what)
        if not condition:
            failures.append(what)

    cold = run.CliCold(0)
    cold.setup()
    for call in cold.calls:
        command = call.key.split()[0]
        real = call.run(None)
        expect(call.check(real) == [], f"{call.key}: real output passes")
        corruptions = [("truncated", _truncated)]
        if command in ("bound", "audit"):
            corruptions.append(("upper bound 1.5", lambda out: _edit_json(out, _upper_above_one)))
        if "both" in call.key:
            corruptions.append(("oracle off by 1e-6", lambda out: _edit_json(out, _oracle_drifts)))
        if command == "demo":
            corruptions.append(('"ok": false', lambda out: _edit_json(out, _demo_not_ok)))
        if command == "estimate":
            corruptions.append(("one conditional off by an ulp", lambda out: _edit_json(out, _estimate_off_by_an_ulp)))
        for label, corrupt in corruptions:
            expect(call.check(corrupt(real)) != [], f"{call.key}: {label} fails")
        expect(cold.same_output(call.key, real + b" ") != [], f"{call.key}: changed output for the same input fails")

    missing = cold.cli_call_of(["bound", "tests/data/no_such_file.json"], lambda out: [])
    cold.calls = [missing]
    phase = run.measure(cold, 0)
    expect(phase.failed == len(phase.latencies) > 0, "non-zero exit code fails")

    sweep = run.AuditSweep(0)
    sweep.POOL = sweep.WARMUP = 64
    sweep.setup()
    clean = run.measure(sweep, 0.2)
    expect(clean.failed == 0 and len(clean.latencies) > 0, "audit-sweep: error_rate 0 on real outputs")
    corrupted = run.measure(sweep, 0.2, corrupt=lambda out: _edit_json(out, _upper_above_one))
    expect(corrupted.failed == len(corrupted.latencies) > 0, "audit-sweep: error_rate 1 on corrupted outputs")

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in run.WORKLOADS.values()],
           "BENCHMARK.json workloads match run.py")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end metrics match run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
           "BENCHMARK.json per_layer metrics match run.py")

    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
