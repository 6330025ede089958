"""Interval bounds on the probability of causation.

Given discrete observables for a binary exposure and response, optionally
with a mediator and a stratifying covariate, this package computes sharp
lower and upper bounds on P(R(0)=0, R(1)=1 | E=1, R=1), verifies them
against a brute-force oracle over the potential-outcome polytope, and
audits how the interval moves when parts of the structure are ignored.
"""

from ._version import __version__
from .audit import (
    AuditEntry,
    AuditReport,
    Relation,
    classify_relation,
    compute_intervals,
    run_audit,
    scenario_digest,
)
from .bounds import Method, PcInterval, pc_bounds
from .checks import SweepReport, equivalence_sweep, render_sweep_report
from .contingency import ContingencyTable, estimate_from_counts, read_counts_csv
from .demo import REFERENCE_CASES, demo_document, run_demo
from .errors import (
    CausaboundError,
    EmptyConditioningCellError,
    InapplicableModeError,
    ScenarioFormatError,
    UndefinedConditionalError,
    UndefinedPcError,
)
from .observables import ObservableSet, applicable_modes, chain_response, derive_observables, reduce_scenario
from .oracle import FrechetBox, OracleCertificate, frechet_box, grid_scan_bounds, oracle_bounds
from .randomgen import random_scenario
from .report import (
    digest_bytes,
    display,
    full_precision,
    render_csv,
    render_json,
    report_document,
)
from .scenario import (
    AnalysisMode,
    Scenario,
    Structure,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

__all__ = [
    "__version__",
    "AnalysisMode",
    "AuditEntry",
    "AuditReport",
    "CausaboundError",
    "ContingencyTable",
    "EmptyConditioningCellError",
    "FrechetBox",
    "InapplicableModeError",
    "Method",
    "ObservableSet",
    "OracleCertificate",
    "PcInterval",
    "REFERENCE_CASES",
    "Relation",
    "Scenario",
    "ScenarioFormatError",
    "Structure",
    "SweepReport",
    "UndefinedConditionalError",
    "UndefinedPcError",
    "applicable_modes",
    "chain_response",
    "classify_relation",
    "compute_intervals",
    "demo_document",
    "derive_observables",
    "digest_bytes",
    "display",
    "equivalence_sweep",
    "estimate_from_counts",
    "frechet_box",
    "full_precision",
    "grid_scan_bounds",
    "load_scenario",
    "oracle_bounds",
    "pc_bounds",
    "random_scenario",
    "read_counts_csv",
    "reduce_scenario",
    "render_csv",
    "render_json",
    "render_sweep_report",
    "report_document",
    "run_audit",
    "run_demo",
    "scenario_digest",
    "scenario_from_dict",
    "scenario_to_dict",
    "validate_scenario",
]
