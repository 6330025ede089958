"""Interval bounds on the probability of causation.

Given discrete observables for a binary exposure and response, optionally
with a mediator and a stratifying covariate, this package computes sharp
lower and upper bounds on P(R(0)=0, R(1)=1 | E=1, R=1), verifies them
against a brute-force oracle over the potential-outcome polytope, and
audits how the interval moves when parts of the structure are ignored.

The public names resolve on first access (PEP 562), so importing one
module (`causabound.cli`, say) loads only what that module imports.
"""

import importlib

from ._version import __version__

# each public name's home module
_HOME = {
    name: module
    for module, names in {
        "audit": ("AuditEntry", "AuditReport", "Relation", "classify_relation", "compute_intervals", "run_audit",
                  "scenario_digest"),
        "bounds": ("Method", "PcInterval", "pc_bounds"),
        "checks": ("SweepReport", "equivalence_sweep", "render_sweep_report"),
        "contingency": ("ContingencyTable", "estimate_from_counts", "read_counts_csv"),
        "demo": ("REFERENCE_CASES", "demo_document", "run_demo"),
        "errors": ("CausaboundError", "EmptyConditioningCellError", "InapplicableModeError", "ScenarioFormatError",
                   "UndefinedConditionalError", "UndefinedPcError"),
        "observables": ("ObservableSet", "applicable_modes", "chain_response", "derive_observables",
                        "reduce_scenario"),
        "oracle": ("FrechetBox", "OracleCertificate", "frechet_box", "grid_scan_bounds", "oracle_bounds"),
        "randomgen": ("random_scenario",),
        "report": ("digest_bytes", "display", "full_precision", "render_csv", "render_json", "report_document"),
        "scenario": ("AnalysisMode", "Scenario", "Structure", "load_scenario", "scenario_from_dict",
                     "scenario_to_dict", "validate_scenario"),
    }.items()
    for name in names
}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    """Import a public name's home module on first access; a submodule name falls through to the import system."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
