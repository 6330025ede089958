#!/usr/bin/env python3
"""Layered benchmark of causabound.

    python3 layerbench/run.py --workload cli-cold --seed 1 --seconds 35 --trace 0
    python3 layerbench/run.py --workload all --seed 1 --seconds 35

The program is the `causabound` package under `src/` of the checkout that
holds this file; CLI calls run `python -m causabound.cli` with
`PYTHONPATH=src` under this interpreter.  Load is closed-loop with one
client: the next operation starts when the previous one has ended, with at
most one child process at a time.  Every output is checked (verify.py); a
failed check, an exception or a non-zero exit fails the operation.

`--trace 0` reports the end-to-end metrics.  `--trace 1` spends half the
time untraced and half traced, and reports self time per layer, exact work
counts over a fixed reference unit of work, and the tracing overhead; the
spans go to `.bench_work/<workload>/spans-seed<n>.tsv`.  Human-readable
lines come first, the last line is one JSON object.  `--workload all` runs
every workload in turn and prints the figures under their per-workload
names (cli_p50_ms, estimate_s, scenario_p50_us, ...).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from resource import RUSAGE_CHILDREN, RUSAGE_SELF, getrusage
from time import perf_counter
from typing import Callable

import inputs
import verify
from tracer import COUNTERS, LAYERS, Tracer, calls_metric

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
MIN_OPS = 2
CALL_TIMEOUT_S = 120
INTERP_PROBES = 5
# Installed packages import from cached bytecode, so the warm-up writes it
# (into src/) and no timed call pays compilation, whatever the caller's
# environment says.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
)
# Printed, not reported: on a shared machine whose speed swings by a third
# within seconds, the median and tails of the ~20 strata-scale operations
# in a run spread more across runs than the mean does.
PRINTED = (("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("op_p99_ms", "ms"))

PER_LAYER = (
    (("interp.start_ms", "ms"),)
    + tuple((f"{layer}_ms", "ms") for layer in LAYERS)
    + tuple((calls_metric(layer), "count") for layer in LAYERS)
    + tuple((name, "bytes" if name.endswith("bytes_out") else "count") for name in COUNTERS)
    + (("unattributed_ms", "ms"), ("trace.overhead_ms", "ms"), ("trace.overhead_pct", "%"))
)


class CallFailed(Exception):
    pass


@dataclass
class Call:
    """One call of the program: `run(tracer)` returns the output bytes, `check` lists problems."""

    key: str
    run: Callable[[Tracer | None], bytes]
    check: Callable[[bytes], list[str]]


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.extend(problems[:3])


def cli_call(argv: list[str], tracer: Tracer | None, spans_path: Path) -> bytes:
    """One CLI process from spawn to exit; traced ones go through traced_cli.py."""
    if tracer is None:
        cmd = [sys.executable, "-m", "causabound.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, timeout=CALL_TIMEOUT_S)
    if proc.returncode != 0:
        raise CallFailed(f"exit code {proc.returncode}: {proc.stderr[-400:]!r}")
    if tracer is not None:
        tracer.absorb(json.loads(spans_path.read_text(encoding="utf-8")))
    return proc.stdout


class Workload:
    name = ""
    why = ""
    strata: int | None = None
    calls_per_op = 1  # calls that make one operation
    reference_calls = 1  # calls whose work counts are reported
    spawns = True  # each call starts an interpreter

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.dir = WORK / self.name
        self.calls: list[Call] = []
        self.digests: dict[str, bytes] = {}

    def make_inputs(self) -> None:
        raise NotImplementedError

    def figures(self, calls: list[float]) -> dict[str, tuple[float, str]]:
        """The end-to-end figures under this workload's own names, from call times."""
        raise NotImplementedError

    def warmup_calls(self) -> list[Call]:
        return self.calls

    def setup(self) -> None:
        """Generate and write the inputs, then warm up (pyc files, caches)."""
        self.dir.mkdir(parents=True, exist_ok=True)
        self.make_inputs()
        for call in self.warmup_calls():
            try:
                self.same_output(call.key, call.run(None))
            except Exception:  # a failing program is counted by the timed operations
                pass

    def same_output(self, key: str, output: bytes) -> list[str]:
        digest = hashlib.sha256(output).digest()
        if self.digests.setdefault(key, digest) != digest:
            return [f"{key}: output differs from an earlier run of the same input"]
        return []

    def cli_call_of(self, argv: list[str], check: Callable[[bytes], list[str]]) -> Call:
        spans = self.dir / "child-spans.json"
        return Call(" ".join(argv), functools.partial(cli_call, argv, spans_path=spans), check)

    def invocation(self) -> list[str]:
        return [f"PYTHONPATH=src {Path(sys.executable).name} -m causabound.cli {c.key}" for c in self.calls]

    def tracing(self, tracer: Tracer):
        return nullcontext()


def _tolerance() -> float:
    from causabound.checks import TOLERANCE

    return TOLERANCE


class CliCold(Workload):
    name = "cli-cold"
    why = "one fresh CLI process per call on K<=2 inputs; start-up and import dominate, compute is under 1 ms"
    strata = 2
    reference_calls = 5

    def make_inputs(self) -> None:
        tol = _tolerance()
        csv_path = "tests/data/mediated_confounding_counts.csv"
        expected = inputs.expected_estimate(*inputs.read_counts(ROOT / csv_path))
        rotation = [
            self.cli_call_of(["bound", "tests/data/crossover_covariate.json"],
                        functools.partial(verify.report_problems, both=False, tolerance=tol)),
            self.cli_call_of(["bound", "--method", "both", csv_path],
                        functools.partial(verify.report_problems, both=True, tolerance=tol)),
            self.cli_call_of(["audit", "--method", "both", "tests/data/mediated_confounding.json"],
                        functools.partial(verify.report_problems, both=True, tolerance=tol)),
            self.cli_call_of(["estimate", csv_path], functools.partial(verify.estimate_problems, expected=expected)),
            self.cli_call_of(["demo", "--json"], verify.demo_problems),
        ]
        start = self.seed % len(rotation)
        self.calls = rotation[start:] + rotation[:start]

    def figures(self, calls: list[float]) -> dict[str, tuple[float, str]]:
        cuts = statistics.quantiles(calls, n=10, method="inclusive")
        return {"cli_p50_ms": (statistics.median(calls) * 1e3, "ms"), "cli_p90_ms": (cuts[8] * 1e3, "ms")}


class StrataScale(Workload):
    name = "strata-scale"
    why = ("estimate on a K=128 counts CSV, then audit --method both on a K=1024 scenario;"
           " the estimate is quadratic in K, the audit runs every per-stratum loop")
    strata = 1024
    calls_per_op = 2
    reference_calls = 2
    ESTIMATE_STRATA = 128

    def make_inputs(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        variables = ("E", "M", "R", "S")
        counts = inputs.counts_table(rng, self.ESTIMATE_STRATA)
        counts_path = self.dir / f"counts_k{self.ESTIMATE_STRATA}.csv"
        counts_path.write_text(inputs.counts_csv(variables, counts), encoding="utf-8")
        scenario_path = self.dir / f"scenario_k{self.strata}.json"
        doc = inputs.stratified_scenario(rng, self.strata)
        scenario_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        self.calls = [
            self.cli_call_of(["estimate", str(counts_path.relative_to(ROOT))],
                             functools.partial(verify.estimate_problems,
                                               expected=inputs.expected_estimate(variables, counts))),
            self.cli_call_of(["audit", "--method", "both", str(scenario_path.relative_to(ROOT))],
                             functools.partial(verify.report_problems, both=True, tolerance=_tolerance())),
        ]

    def warmup_calls(self) -> list[Call]:
        # the audit imports every module the estimate does; the estimate adds 1.5 s
        return self.calls[1:]

    def figures(self, calls: list[float]) -> dict[str, tuple[float, str]]:
        return {
            "estimate_s": (statistics.median(calls[0::2]), "s"),
            "audit_s": (statistics.median(calls[1::2]), "s"),
        }


class AuditSweep(Workload):
    name = "audit-sweep"
    why = "thousands of in-process audits with K<=8, all four structures; per-call overhead shows, import does not"
    strata = 8
    reference_calls = 400
    spawns = False
    POOL = 2048
    WARMUP = 256

    def make_inputs(self) -> None:
        from causabound import audit, bounds, report, scenario

        # modules, not functions: the tracer rebinds the functions inside them
        self.modules = (audit, report, scenario)
        self.methods = (bounds.Method.CLOSED_FORM, bounds.Method.ORACLE)
        check = functools.partial(verify.report_problems, both=True, tolerance=_tolerance())
        pool = inputs.sweep_pool(random.Random(f"{self.name}:{self.seed}"), self.POOL, self.strata)
        self.calls = [Call(f"pool[{i}]", functools.partial(self._audit, text), check) for i, text in enumerate(pool)]

    def warmup_calls(self) -> list[Call]:
        return self.calls[: self.WARMUP]

    def figures(self, calls: list[float]) -> dict[str, tuple[float, str]]:
        cuts = statistics.quantiles(calls, n=100, method="inclusive")
        return {
            "scenarios_per_s": (len(calls) / sum(calls), "1/s"),
            "scenario_p50_us": (statistics.median(calls) * 1e6, "us"),
            "scenario_p99_us": (cuts[98] * 1e6, "us"),
        }

    def _audit(self, text: str, tracer: Tracer | None = None) -> bytes:
        """`cli._cmd_audit` on JSON text, without interpreter start."""
        audit, report, scenario = self.modules
        digest = report.digest_bytes(text.encode("utf-8"))
        parsed = scenario.scenario_from_dict(json.loads(text))
        violations = scenario.validate_scenario(parsed)
        if violations:
            raise CallFailed("invalid scenario: " + "; ".join(violations))
        result = audit.run_audit(parsed, self.methods)
        return report.render_json(report.report_document(parsed, digest, (), result)).encode("utf-8")

    def invocation(self) -> list[str]:
        return ["in-process: json.loads, scenario_from_dict, validate_scenario, "
                "run_audit(closed+oracle), report_document, render_json"]

    @contextmanager
    def tracing(self, tracer: Tracer):
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()


WORKLOADS = {w.name: w for w in (CliCold, StrataScale, AuditSweep)}

def measure(workload: Workload, seconds: float, tracer: Tracer | None = None,
            corrupt: Callable[[bytes], bytes] | None = None) -> Phase:
    """Run whole cycles over the workload's calls until `seconds` pass; one
    latency per call."""
    phase = Phase()
    deadline = perf_counter() + seconds
    n = 0
    while True:
        for call in workload.calls:
            if tracer is not None:
                tracer.op_id = n
            n += 1
            start = perf_counter()
            try:
                output = call.run(tracer)
            except Exception as exc:  # any crash of the program fails this call
                phase.latencies.append(perf_counter() - start)
                phase.fail([f"{call.key}: {exc!r}"])
                continue
            phase.latencies.append(perf_counter() - start)
            if corrupt is not None:
                output = corrupt(output)
            problems = call.check(output) + workload.same_output(call.key, output)
            if problems:
                phase.fail([f"{call.key}: {p}" for p in problems])
        if perf_counter() >= deadline and n >= MIN_OPS * workload.calls_per_op:
            return phase


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child, in MiB."""
    return (getrusage(RUSAGE_SELF).ru_maxrss + getrusage(RUSAGE_CHILDREN).ru_maxrss) / 1024


def operation_times(workload: Workload, calls: list[float]) -> list[float]:
    k = workload.calls_per_op
    return [sum(calls[i:i + k]) for i in range(0, len(calls), k)]


def latency_figures(ops: list[float]) -> dict[str, float]:
    cuts = statistics.quantiles(ops, n=100, method="inclusive")
    return {
        "ops_per_s": len(ops) / sum(ops),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_p90_ms": cuts[89] * 1e3,
        "op_p99_ms": cuts[98] * 1e3,
    }


def interpreter_start_ms() -> float:
    """Median wall time of `python -c pass` in the CLI's environment."""
    times = []
    for _ in range(INTERP_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=ENV, check=True, timeout=CALL_TIMEOUT_S)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def layer_metrics(workload: Workload, tracer: Tracer, traced: Phase, untraced: Phase) -> dict[str, float]:
    self_s, calls, counters = tracer.summary(workload.reference_calls)
    n = len(traced.latencies) / workload.calls_per_op
    traced_ms = statistics.fmean(operation_times(workload, traced.latencies)) * 1e3
    untraced_ms = statistics.fmean(operation_times(workload, untraced.latencies)) * 1e3
    metrics = {"interp.start_ms": interpreter_start_ms() if workload.spawns else 0.0}
    metrics.update((f"{layer}_ms", s * 1e3 / n) for layer, s in zip(LAYERS, self_s))
    metrics.update((calls_metric(layer), c) for layer, c in zip(LAYERS, calls))
    metrics.update(counters)
    metrics["unattributed_ms"] = traced_ms - sum(self_s) * 1e3 / n
    metrics["trace.overhead_ms"] = traced_ms - untraced_ms
    metrics["trace.overhead_pct"] = 100.0 * (traced_ms / untraced_ms - 1.0)
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str:
    """HEAD, read from `.git` without starting git: a child would count in peak_rss_mb."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(workload: Workload, args: argparse.Namespace) -> dict:
    from causabound import kernels

    sources = hashlib.sha256()
    for path in sorted((SRC / "causabound").glob("*.py*")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "kernels_backend": kernels.backend_name(),
        "strata": workload.strata,
        "invocation": workload.invocation(),
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def run_workload(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    print(f"layerbench: workload {workload.name}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("  why: " + workload.why)
    info = provenance(workload, args)
    print("provenance: " + json.dumps(info, sort_keys=True))

    if args.trace:
        untraced = measure(workload, args.seconds / 2)
        tracer = Tracer()
        with workload.tracing(tracer):
            traced = measure(workload, args.seconds / 2, tracer)
        phases = (untraced, traced)
        metrics = layer_metrics(workload, tracer, traced, untraced)
        units = dict(PER_LAYER)
        spans_path = workload.dir / f"spans-seed{args.seed}.tsv"
        tracer.write_tsv(spans_path, info)
        print(f"  spans: {spans_path.relative_to(ROOT)} ({len(tracer.start)} spans; counts over the first "
              f"{workload.reference_calls} call(s) of the traced half)")
    else:
        phase = measure(workload, args.seconds)
        phases = (phase,)
        metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb()}
        metrics.update(latency_figures(operation_times(workload, phase.latencies)))
        units = dict(END_TO_END)

    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    for name, unit in units.items():
        value = metrics[name]
        print(f"  {name:<34} {value:>14{'d' if isinstance(value, int) else '.6g'}} {unit}")
    # the figures under their per-workload names, for `--workload all`
    figures = {"error_rate": [failed / attempted, "ratio"]}
    if not args.trace:
        for name, unit in PRINTED:
            print(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
        print(f"  {'operations':<34} {len(phases[0].latencies) // workload.calls_per_op:>14d}")
        figures.update(setup_s=[metrics["setup_s"], "s"], peak_rss_mb=[metrics["peak_rss_mb"], "MB"])
        figures.update((name, list(value)) for name, value in workload.figures(phases[0].latencies).items())
    print(f"  {'error_rate':<34} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} failed)")
    print("figures: " + json.dumps(figures))
    for problem in (p for phase in phases for p in phase.problems):
        print("  FAILED " + problem, file=sys.stderr)
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, then its figures by their names."""
    rows, results = [], []
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.splitlines()
        results.append((name, json.loads(lines[-1])))
        figures = json.loads(next(line for line in lines if line.startswith("figures: "))[len("figures: "):])
        rows.extend((name, figure, value, unit) for figure, (value, unit) in figures.items())
    print("layerbench: all workloads")
    for name, figure, value, unit in rows:
        print(f"  {name:<16} {figure:<18} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{name}.{k}": v for name, r in results for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "causabound" / "__init__.py").is_file():
        print(f"layerbench: no causabound package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
