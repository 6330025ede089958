"""Bundled reference analyses with their published display values.

Four small studies, one per structure, each carrying the two-decimal
interval displays it is known to produce.  The demo recomputes every
applicable mode with both methods and compares against the expected
displays; any mismatch is a failure.  Doubles as a smoke test of the
whole pipeline on data a reader can check by hand.
"""

from __future__ import annotations

from typing import NamedTuple

from .audit import run_audit
from .bounds import Method
from .contingency import ContingencyTable, estimate_from_counts
from .report import DOCUMENT_HEADER, interval_payload
from .scenario import AnalysisMode, Scenario, Structure, scenario_to_dict


class ReferenceCase(NamedTuple):
    name: str
    summary: str
    scenario: Scenario
    expected: tuple[tuple[AnalysisMode, str, str], ...]


def _cases() -> tuple[ReferenceCase, ...]:
    trial_counts = ContingencyTable.from_cells(("E", "R"), {(0, 0): 88, (0, 1): 12, (1, 0): 70, (1, 1): 30})
    randomized_trial = ReferenceCase(
        "randomized-trial",
        "100 exposed vs 100 unexposed, response rates 30% and 12%",
        estimate_from_counts(trial_counts),
        ((AnalysisMode.FULL, "0.60", "1.00"),),
    )
    complete_mediation = ReferenceCase(
        "complete-mediation",
        "same margins as the trial, but the effect runs through a mediator",
        Scenario(
            Structure.MEDIATOR,
            response=((0.9, 0.1),),
            mediator=((0.975, 0.75),),
        ),
        (
            (AnalysisMode.FULL, "0.60", "0.76"),
            (AnalysisMode.IGNORE_MEDIATOR, "0.60", "1.00"),
        ),
    )
    crossover_covariate = ReferenceCase(
        "crossover-covariate",
        "a stratifier that reverses the effect direction between its levels",
        Scenario(
            Structure.COVARIATE,
            response=((0.2, 0.8), (0.8, 0.2)),
            exposure=(0.8, 0.2),
            covariate_prior=(0.5, 0.5),
        ),
        (
            (AnalysisMode.FULL, "0.71", "1.00"),
            (AnalysisMode.IGNORE_COVARIATE, "0.00", "0.47"),
        ),
    )
    mediated_confounding = ReferenceCase(
        "mediated-confounding",
        "mediation within strata of an unevenly exposed covariate",
        Scenario(
            Structure.MEDIATOR_COVARIATE,
            response=((0.8, 0.7), (0.9, 0.3)),
            mediator=((0.1, 0.3), (0.8, 0.8)),
            exposure=(0.9, 0.1),
            covariate_prior=(0.1, 0.9),
        ),
        (
            (AnalysisMode.FULL, "0.00", "0.21"),
            (AnalysisMode.IGNORE_MEDIATOR, "0.00", "0.53"),
            (AnalysisMode.IGNORE_COVARIATE, "0.24", "0.59"),
            (AnalysisMode.IGNORE_BOTH, "0.29", "0.97"),
        ),
    )
    return (randomized_trial, complete_mediation, crossover_covariate, mediated_confounding)


REFERENCE_CASES = _cases()


def demo_document() -> tuple[dict, bool]:
    """Recompute every reference interval both ways and check its displays.

    Returns a JSON-friendly document and whether all displays matched.
    """
    doc_cases = []
    ok = True
    checked = 0
    methods = (Method.CLOSED_FORM, Method.ORACLE)
    for case in REFERENCE_CASES:
        expected_by_mode = {mode: (lo, hi) for mode, lo, hi in case.expected}
        rows = []
        for entry in run_audit(case.scenario, methods).entries:
            row = interval_payload(entry)
            del row["notes"]
            expected = expected_by_mode.get(entry.mode)
            if expected is not None:
                checked += 1
                row["expected_display"] = [expected[0], expected[1]]
                row["matches"] = (row["lower_display"], row["upper_display"]) == expected
                ok = ok and row["matches"]
            rows.append(row)
        doc_cases.append(
            {
                "name": case.name,
                "summary": case.summary,
                "scenario": scenario_to_dict(case.scenario),
                "intervals": rows,
            }
        )
    doc = {**DOCUMENT_HEADER, "cases": doc_cases, "checked": checked, "ok": ok}
    return doc, ok


def run_demo() -> tuple[str, bool]:
    """demo_document rendered as a text table; returns it and the verdict."""
    doc, ok = demo_document()
    lines = []
    for case in doc["cases"]:
        lines.append(f"{case['name']}: {case['summary']}")
        for row in case["intervals"]:
            verdict = ""
            if "matches" in row:
                lo, hi = row["expected_display"]
                verdict = "ok" if row["matches"] else f"MISMATCH, expected [{lo}, {hi}]"
            lines.append(
                f"  {row['mode']:<16} {row['method']:<7} "
                f"[{row['lower_display']}, {row['upper_display']}]  {verdict}".rstrip()
            )
        lines.append("")
    lines.append(
        f"demo: {'ok' if ok else 'FAILED'} ({doc['checked']} intervals checked against their reference displays)"
    )
    return "\n".join(lines) + "\n", ok
