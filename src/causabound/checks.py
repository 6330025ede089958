"""Randomized agreement check between the closed forms and the oracle.

Sweeps seeded random scenarios of every structure, computes both the
closed-form interval and the corner-enumeration oracle on each, and
tracks the worst endpoint discrepancy.  The two derivations share only the
scenario, its stratum weights P(S=s|E=1) (`observables.stratum_posterior`),
its per-stratum P(R=1|E=1,S=s) (`observables.response_rows`) and the
P(R=1|E=1) sum over them (`observables._mix`); the Frechet box belongs to
the oracle alone.  Past those, agreement at 1e-9 over a sweep is strong
evidence the closed form is the exact solution of its optimization problem.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple

from .audit import compute_intervals
from .bounds import Method
from .randomgen import MIN_MASS, random_scenario
from .scenario import AnalysisMode, Scenario, Structure, scenario_to_dict

DEFAULT_SEED = 42
DEFAULT_TRIALS = 250
TOLERANCE = 1e-9


class StructureSweep(NamedTuple):
    """Worst disagreement seen for one structure."""

    structure: Structure
    max_discrepancy: float
    worst_scenario: Scenario | None
    worst_endpoint: str


class SweepReport(NamedTuple):
    seed: int
    trials_per_structure: int
    results: tuple[StructureSweep, ...]

    @property
    def max_discrepancy(self) -> float:
        return max(r.max_discrepancy for r in self.results)

    @property
    def ok(self) -> bool:
        return self.max_discrepancy <= TOLERANCE


def equivalence_sweep(seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS) -> SweepReport:
    """Run the sweep: `trials` scenarios per structure from one seeded stream."""
    rng = random.Random(seed)
    results = []
    for structure in Structure:
        worst = 0.0
        worst_scenario: Scenario | None = None
        worst_endpoint = ""
        for _ in range(trials):
            scenario = random_scenario(rng, structure)
            closed, exact = compute_intervals(scenario, AnalysisMode.FULL, tuple(Method))
            for endpoint, gap in (
                ("lower", abs(closed.lower - exact.lower)),
                ("upper", abs(closed.upper - exact.upper)),
            ):
                if gap > worst:
                    worst, worst_scenario, worst_endpoint = gap, scenario, endpoint
        results.append(StructureSweep(structure, worst, worst_scenario, worst_endpoint))
    return SweepReport(seed, trials, tuple(results))


def render_sweep_report(report: SweepReport) -> str:
    """Deterministic text rendering; includes replay JSON on failure."""
    lines = [
        f"closed-form vs oracle sweep: seed {report.seed}, "
        f"{report.trials_per_structure} scenarios per structure",
        f"generator guardrail: denominators and stratum weights below {MIN_MASS} are excluded",
    ]
    for r in report.results:
        verdict = "ok" if r.max_discrepancy <= TOLERANCE else "FAIL"
        lines.append(
            f"  {r.structure.value:<19} max endpoint gap {r.max_discrepancy:.3e}  {verdict}"
        )
    if report.ok:
        lines.append(f"all structures agree within {TOLERANCE:.0e}")
    else:
        lines.append(f"DISAGREEMENT beyond {TOLERANCE:.0e}; worst offenders follow for replay:")
        for r in report.results:
            if r.max_discrepancy > TOLERANCE and r.worst_scenario is not None:
                lines.append(
                    f"  {r.structure.value} ({r.worst_endpoint} endpoint, gap {r.max_discrepancy:.3e}):"
                )
                lines.append("    " + json.dumps(scenario_to_dict(r.worst_scenario)))
    return "\n".join(lines) + "\n"
