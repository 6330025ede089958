"""The value types are immutable tuples, and importing the CLI stays light."""

import subprocess
import sys

import pytest

import causabound
from causabound import (
    REFERENCE_CASES,
    ContingencyTable,
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


def test_cli_import_leaves_fractions_to_the_exact_path():
    # only an ill-conditioned cell needs exact arithmetic, and `fractions` pulls in `decimal`
    code = "import sys, causabound.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


# the modules whose functions the benchmark's tracer rebinds once `causabound.cli` is imported;
# a module the CLI imported later would keep its functions untraced
TRACED_LAYERS = ("scenario", "contingency", "observables", "bounds", "oracle", "audit", "report")


def test_cli_import_loads_the_layers_and_leaves_each_command_its_own_imports():
    code = "import sys, causabound.cli; print(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    # hashlib digests bound and audit inputs, csv reads counts and writes --output csv, the rest serve one command
    assert {"hashlib", "csv", "causabound.checks", "causabound.demo", "causabound.randomgen"} & loaded == set()
    assert {f"causabound.{name}" for name in TRACED_LAYERS} <= loaded


def test_every_public_name_resolves_on_first_access():
    code = (
        "import causabound as c; "
        "assert all(getattr(c, name) is not None for name in c.__all__); "
        "from causabound import kernels; "
        "print(kernels.backend_name())"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "python"
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        causabound.not_a_name


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
    interval = PcInterval(0.2, 0.5)
    assert interval._replace(upper=0.6).width == pytest.approx(0.4)
    with pytest.raises(ValueError, match="invalid interval"):
        interval._replace(lower=0.7)
