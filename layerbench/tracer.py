"""In-memory span recorder for the benchmark's traced runs.

The program is timed from outside.  `Tracer.install` wraps the public
function of every layer and rebinds the name wherever a causabound module
holds it, because `from .x import y` copies the function into the importing
module at import time (`causabound.audit.pc_bounds`,
`causabound.cli.estimate_from_counts`, ...).  `ContingencyTable.count_where`
is wrapped on its class and only counted.

Spans live in flat arrays: layer, start, end, parent span and operation id.
A layer's self time is its span minus its direct child spans.  Nested spans
of one layer (`load_scenario` calling `scenario_from_dict`) add their self
times and count as one call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Layers in metric order.  Metric names are "<layer>_ms" and
# "<layer without .self>.calls".
LAYERS = (
    "import.cli",
    "cli.self",
    "scenario.load",
    "scenario.validate",
    "contingency.read",
    "contingency.estimate",
    "observables.reduce",
    "observables.derive",
    "bounds.pc_bounds",
    "oracle.oracle_bounds",
    "audit.self",
    "audit.digest",
    "report.document",
    "report.render",
)

# (module, public function, layer)
LAYER_FUNCTIONS = (
    ("causabound.cli", "main", "cli.self"),
    ("causabound.scenario", "load_scenario", "scenario.load"),
    ("causabound.scenario", "scenario_from_dict", "scenario.load"),
    ("causabound.scenario", "validate_scenario", "scenario.validate"),
    ("causabound.contingency", "read_counts_csv", "contingency.read"),
    ("causabound.contingency", "estimate_from_counts", "contingency.estimate"),
    ("causabound.observables", "reduce_scenario", "observables.reduce"),
    ("causabound.observables", "derive_observables", "observables.derive"),
    ("causabound.bounds", "pc_bounds", "bounds.pc_bounds"),
    ("causabound.oracle", "oracle_bounds", "oracle.oracle_bounds"),
    ("causabound.audit", "run_audit", "audit.self"),
    ("causabound.audit", "scenario_digest", "audit.digest"),
    ("causabound.report", "report_document", "report.document"),
    ("causabound.report", "render_json", "report.render"),
    ("causabound.report", "render_csv", "report.render"),
)

RENDERERS = ("render_json", "render_csv")

COUNTERS = ("contingency.count_where_calls", "contingency.cells_scanned", "report.bytes_out")


def calls_metric(layer: str) -> str:
    return layer.removesuffix(".self") + ".calls"


class Tracer:
    """Spans and counters of one run, tagged with the current operation id."""

    def __init__(self) -> None:
        self.layer = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter[tuple[str, int]] = Counter()
        self.op_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, layer_id: int) -> int:
        index = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str):
        index = self._open(LAYERS.index(layer))
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, layer: str, renderer: bool):
        layer_id = LAYERS.index(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if renderer:
                self.counts["report.bytes_out", self.op_id] += len(result.encode("utf-8"))
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function where callers look it up."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "causabound"]
        for module_name, attr, layer in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, layer, attr in RENDERERS)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

        table = importlib.import_module("causabound.contingency").ContingencyTable
        count_where = table.count_where

        def counted(table_self, **condition):
            self.counts["contingency.count_where_calls", self.op_id] += 1
            self.counts["contingency.cells_scanned", self.op_id] += len(table_self.cells)
            return count_where(table_self, **condition)

        self._undo.append((table, "count_where", count_where))
        table.count_where = counted

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self) -> dict:
        """Spans and counters as plain lists (a child process hands these back)."""
        return {
            "spans": [
                [LAYERS[self.layer[i]], self.start[i], self.end[i], self.parent[i], self.op[i]]
                for i in range(len(self.start))
            ],
            "counts": [[name, op, n] for (name, op), n in self.counts.items()],
        }

    def absorb(self, dumped: dict) -> None:
        """Append a child's spans and counters under the current operation id."""
        offset = len(self.start)
        for layer, start, end, parent, _ in dumped["spans"]:
            self.layer.append(LAYERS.index(layer))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.op.append(self.op_id)
        for name, _, n in dumped["counts"]:
            self.counts[name, self.op_id] += n

    def summary(self, reference_calls: int) -> tuple[list[float], list[int], dict[str, int]]:
        """Self seconds per layer over all spans; calls and counters over the
        first `reference_calls` calls, which are the same work every run."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        for i in range(n):
            layer = self.layer[i]
            self_s[layer] += self.end[i] - self.start[i] - child[i]
            p = self.parent[i]
            if self.op[i] < reference_calls and (p < 0 or self.layer[p] != layer):
                calls[layer] += 1
        counters = {name: 0 for name in COUNTERS}
        for (name, op), value in self.counts.items():
            if op < reference_calls:
                counters[name] += value
        return self_s, calls, counters

    def write_tsv(self, path, header: dict) -> None:
        """All spans, one per line, after a JSON header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            fh.write("layer\tstart_s\tend_s\tparent\top\n")
            fh.writelines(
                f"{LAYERS[self.layer[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\t{self.op[i]}\n"
                for i in range(len(self.start))
            )
