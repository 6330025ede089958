"""Bias audits: what happens to the bounds when structure is ignored.

An audit computes the PC interval under every analysis mode the structure
supports, closed form and, on request, oracle.  Intervals are then
compared pairwise: `nested` when one contains the other (1e-12 slack),
`disjoint` when they are strictly separated, `overlapping` otherwise.
Intervals are closed, so touching endpoints overlap rather than being
disjoint.  The headline question: does any information-discarding mode
produce an interval disjoint from the full-information one?  When yes,
the shortcut analysis is not merely vaguer, it is incompatible with the
truth.
"""

from __future__ import annotations

import enum
import hashlib
import json
from typing import NamedTuple

from .bounds import Method, PcInterval, pc_bounds
from .errors import UndefinedConditionalError
from .observables import observe, reduce_scenario
from .oracle import oracle_bounds
from .scenario import AnalysisMode, Scenario, Structure, clamp_scenario, scenario_to_dict

NESTED_SLACK = 1e-12


class Relation(str, enum.Enum):
    NESTED = "nested"
    OVERLAPPING = "overlapping"
    DISJOINT = "disjoint"


def classify_relation(a: PcInterval, b: PcInterval) -> Relation:
    """How two closed intervals relate; disjointness is strict separation."""
    if a.upper < b.lower or b.upper < a.lower:
        return Relation.DISJOINT
    a_in_b = a.lower >= b.lower - NESTED_SLACK and a.upper <= b.upper + NESTED_SLACK
    b_in_a = b.lower >= a.lower - NESTED_SLACK and b.upper <= a.upper + NESTED_SLACK
    if a_in_b or b_in_a:
        return Relation.NESTED
    return Relation.OVERLAPPING


def applicable_modes(structure: Structure) -> tuple[AnalysisMode, ...]:
    """Every mode the structure supports, full information first."""
    modes = [AnalysisMode.FULL]
    if structure.has_mediator:
        modes.append(AnalysisMode.IGNORE_MEDIATOR)
    if structure.has_covariate:
        modes.append(AnalysisMode.IGNORE_COVARIATE)
    if structure.has_mediator and structure.has_covariate:
        modes.append(AnalysisMode.IGNORE_BOTH)
    return tuple(modes)


class AuditEntry(NamedTuple):
    """One (mode, method) cell: an interval, or the error that prevented it."""

    mode: AnalysisMode
    method: Method
    interval: PcInterval | None
    error: str | None = None


class AuditReport(NamedTuple):
    structure: Structure
    methods: tuple[Method, ...]
    entries: tuple[AuditEntry, ...]
    relations: tuple[tuple[Relation | None, ...], ...]
    headline_disagreement: bool

    def entry(self, mode: AnalysisMode, method: Method) -> AuditEntry:
        for e in self.entries:
            if e.mode is mode and e.method is method:
                return e
        raise KeyError(f"no audit entry for ({mode.value}, {method.value})")

    def relation(
        self,
        mode_a: AnalysisMode,
        method_a: Method,
        mode_b: AnalysisMode,
        method_b: Method,
    ) -> Relation | None:
        """Relation between two entries; None if either entry failed."""
        keys = [(e.mode, e.method) for e in self.entries]
        i = keys.index((mode_a, method_a))
        j = keys.index((mode_b, method_b))
        return self.relations[i][j]


def scenario_digest(scenario: Scenario) -> str:
    """Stable content digest of the canonical JSON form; reports digest the input bytes instead."""
    canonical = json.dumps(scenario_to_dict(scenario), sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def compute_intervals(
    scenario: Scenario, mode: AnalysisMode, methods: tuple[Method, ...]
) -> tuple[PcInterval, ...]:
    """The PC interval of `scenario` analysed under `mode`, once per method in `methods`.

    The tables are first clamped into [0, 1], as the CLI does at load, so
    both methods read the same tables whatever overshoot validation admitted.
    """
    return _mode_intervals(clamp_scenario(scenario), mode, methods)


def _mode_intervals(
    scenario: Scenario, mode: AnalysisMode, methods: tuple[Method, ...]
) -> tuple[PcInterval, ...]:
    """`compute_intervals` on clamped tables; the scenario is reduced once for every method."""
    reduced = reduce_scenario(scenario, mode)
    return tuple(
        pc_bounds(observe(scenario, reduced, mode))
        if method is Method.CLOSED_FORM
        else oracle_bounds(reduced, mode).interval
        for method in methods
    )


def run_audit(scenario: Scenario, methods: tuple[Method, ...] = (Method.CLOSED_FORM,)) -> AuditReport:
    """Audit every applicable mode with the requested methods, on the clamped tables.

    A mode whose conditionals are undefined under its collapse records the
    error in every method's cell (both methods read the same stratum weights
    and denominator, so they fail together), never aborts the rest of the
    audit, and drops out of the relation matrix as None rows.
    """
    clamped = clamp_scenario(scenario)
    entries: list[AuditEntry] = []
    for mode in applicable_modes(scenario.structure):
        try:
            intervals = _mode_intervals(clamped, mode, methods)
        except UndefinedConditionalError as exc:
            entries.extend(AuditEntry(mode, method, None, str(exc)) for method in methods)
        else:
            entries.extend(AuditEntry(mode, method, iv) for method, iv in zip(methods, intervals))
    n, k = len(entries), len(methods)
    relations = tuple(
        tuple(
            classify_relation(entries[i].interval, entries[j].interval)
            if entries[i].interval is not None and entries[j].interval is not None
            else None
            for j in range(n)
        )
        for i in range(n)
    )
    # the first k entries are full information, one per method; entry i's
    # method recurs every k entries
    headline = any(relations[i][j] is Relation.DISJOINT for i in range(k) for j in range(i, n, k))
    return AuditReport(scenario.structure, tuple(methods), tuple(entries), relations, headline)
