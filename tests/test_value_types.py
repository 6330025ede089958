"""The value types are immutable tuples, and importing the CLI stays light."""

import subprocess
import sys

import pytest

from causabound import (
    REFERENCE_CASES,
    AnalysisMode,
    ContingencyTable,
    Method,
    PcInterval,
    ScenarioFormatError,
    derive_observables,
    equivalence_sweep,
    frechet_box,
    oracle_bounds,
    pc_bounds,
    run_audit,
)


def test_cli_import_skips_dataclasses_and_inspect():
    code = (
        "import sys, causabound.cli; "
        "print(sorted({'dataclasses', 'inspect', 'causabound.kernels'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def _instances(confounded_scenario, trial_counts):
    certificate = oracle_bounds(confounded_scenario)
    audit = run_audit(confounded_scenario)
    sweep = equivalence_sweep(seed=1, trials=1)
    return (
        confounded_scenario,
        frechet_box(0.2, 0.7),
        derive_observables(confounded_scenario),
        pc_bounds(derive_observables(confounded_scenario)),
        certificate.strata[0],
        certificate,
        audit.entries[0],
        audit,
        trial_counts,
        sweep.results[0],
        sweep,
        REFERENCE_CASES[0],
    )


def test_every_value_type_is_an_immutable_tuple(confounded_scenario, trial_counts):
    values = _instances(confounded_scenario, trial_counts)
    assert len({type(v) for v in values}) == 12
    for value in values:
        assert isinstance(value, tuple)
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
        with pytest.raises(AttributeError):
            value.not_a_field = None


def test_unsorted_cells_are_rejected(trial_counts):
    with pytest.raises(ScenarioFormatError, match="sorted"):
        ContingencyTable(trial_counts.variables, trial_counts.levels, trial_counts.cells[::-1])
    with pytest.raises(ScenarioFormatError, match="sorted"):
        trial_counts._replace(cells=trial_counts.cells[::-1])


def test_replace_rechecks_the_interval():
    interval = PcInterval(0.2, 0.5, Method.CLOSED_FORM, AnalysisMode.FULL)
    assert interval._replace(upper=0.6).width == pytest.approx(0.4)
    with pytest.raises(ValueError, match="invalid interval"):
        interval._replace(lower=0.7)
