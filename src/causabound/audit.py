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
from itertools import combinations_with_replacement
from typing import NamedTuple

from .bounds import Method, PcInterval, pc_bounds
from .errors import UndefinedConditionalError
from .observables import applicable_modes, observe, reduce_scenario
from .oracle import oracle_bounds
from .scenario import PROBABILITY_TOLERANCE, AnalysisMode, Scenario, Structure, _map_entries, scenario_to_dict

NESTED_SLACK = 1e-12
_UNIT_ROUNDOFF = 2.0**-53


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


class AuditEntry(NamedTuple):
    """One (mode, method) cell: an interval, or the error that prevented it.

    This is the one place an interval is labelled, and every report row is
    built from one (`report.interval_payload`).
    """

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

    def _index(self, mode: AnalysisMode, method: Method) -> int:
        # equality, not identity: a member's str value names it too, as `relation` has always allowed
        for i, e in enumerate(self.entries):
            if e.mode == mode and e.method == method:
                return i
        raise KeyError(f"no audit entry for ({mode.value}, {method.value})")

    def entry(self, mode: AnalysisMode, method: Method) -> AuditEntry:
        return self.entries[self._index(mode, method)]

    def relation(
        self,
        mode_a: AnalysisMode,
        method_a: Method,
        mode_b: AnalysisMode,
        method_b: Method,
    ) -> Relation | None:
        """Relation between two entries; None if either entry failed."""
        return self.relations[self._index(mode_a, method_a)][self._index(mode_b, method_b)]


def scenario_digest(scenario: Scenario) -> str:
    """Stable content digest of the canonical JSON form; reports digest the input bytes instead."""
    import hashlib  # here, not at the top, as in `report.digest_bytes`
    import json

    canonical = json.dumps(scenario_to_dict(scenario), sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def compute_intervals(
    scenario: Scenario, mode: AnalysisMode, methods: tuple[Method, ...]
) -> tuple[PcInterval, ...]:
    """The PC interval of `scenario` analysed under `mode`, once per method in `methods`.

    The scenario is reduced once for every method, and both methods read
    the tables as the Scenario stores them and divide by the same float
    r1 = P(R=1|E=1).  A float endpoint is within 4 K u / r1 of exact, where
    K is `scenario`'s stratum count and u = 2**-53.  Where that bound
    exceeds PROBABILITY_TOLERANCE, the `Fraction` image of `scenario`,
    whose collapse does not round, is built and reduced once, and every
    method runs again on it and reports the floats of its exact endpoints
    with a note naming r1: a cell is exact for every method or for none.
    """
    reduced = reduce_scenario(scenario, mode)
    results = [_interval(scenario, reduced, method) for method in methods]
    if not (results and 4 * scenario.n_strata * _UNIT_ROUNDOFF / results[0][1] > PROBABILITY_TOLERANCE):
        return tuple(interval for interval, _ in results)
    from fractions import Fraction  # imported here only: a module-level import slows every CLI start

    image = Scenario(scenario.structure, *(_map_entries(Fraction, table) for table in scenario[1:]))
    image_reduced = reduce_scenario(image, mode)
    note = f"P(R=1|E=1) = {results[0][1]:.12g}: float rounding could exceed {PROBABILITY_TOLERANCE:g}, "
    note += "endpoints computed exactly"
    exact_intervals = [_interval(image, image_reduced, method)[0] for method in methods]
    return tuple(
        PcInterval(float(ex.lower), float(ex.upper), interval.notes + (note,))
        for (interval, _), ex in zip(results, exact_intervals)
    )


def _interval(scenario: Scenario, reduced: Scenario, method: Method) -> tuple[PcInterval, float]:
    """`method`'s interval on `reduced`, a reduction of `scenario`, and the P(R=1|E=1) it divided by."""
    if method is Method.CLOSED_FORM:
        observed = observe(scenario, reduced)
        return pc_bounds(observed), observed.p_r1_given_e1
    certificate = oracle_bounds(reduced)
    return certificate.interval, certificate.denominator


def run_audit(scenario: Scenario, methods: tuple[Method, ...] = (Method.CLOSED_FORM,)) -> AuditReport:
    """Audit every applicable mode with the requested methods.

    A mode whose conditionals are undefined under its collapse records the
    error in every method's cell (both methods read the same stratum weights
    and denominator, so they fail together), never aborts the rest of the
    audit, and drops out of the relation matrix as None rows.
    """
    entries: list[AuditEntry] = []
    for mode in applicable_modes(scenario.structure):
        try:
            intervals = compute_intervals(scenario, mode, methods)
        except UndefinedConditionalError as exc:
            entries.extend(AuditEntry(mode, method, None, str(exc)) for method in methods)
        else:
            entries.extend(AuditEntry(mode, method, iv) for method, iv in zip(methods, intervals))
    n, k = len(entries), len(methods)
    matrix: list[list[Relation | None]] = [[None] * n for _ in range(n)]
    # the relation is symmetric, so each unordered pair is classified once
    for i, j in combinations_with_replacement(range(n), 2):
        a, b = entries[i].interval, entries[j].interval
        if a is not None and b is not None:
            matrix[i][j] = matrix[j][i] = classify_relation(a, b)
    relations = tuple(map(tuple, matrix))
    # the first k entries are full information, one per method; entry i's
    # method recurs every k entries
    headline = any(relations[i][j] is Relation.DISJOINT for i in range(k) for j in range(i, n, k))
    return AuditReport(scenario.structure, tuple(methods), tuple(entries), relations, headline)
