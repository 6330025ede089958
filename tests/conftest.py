from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, strategies as st

from causabound import Scenario, Structure, estimate_from_counts, load_scenario, read_counts_csv
from causabound.scenario import ordered_sum

DATA = Path(__file__).parent / "data"

# exact ends, signed zero, subnormals, and overshoot inside the 1e-9 tolerance
EDGE_VALUES = (0.0, 1.0, -0.0, 1e-300, 5e-324, -5e-10, 1.0 + 5e-10, 1e-9, 1.0 - 1e-9)
edge_entries = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(min_value=0.0, max_value=1.0))

# P(R=1|E=1) = 1.0e-17 after the covariate collapse, which rounds the
# collapsed P(R=1|E=0) = 1 down by an ulp: in floats N = min(r1, 1 - r0)
# is r1, not 0, and ignore-covariate read [0, 1] where the exact interval
# is [0, 0]
COLLAPSE_ROUNDING = {
    "structure": "covariate",
    "covariate_prior": [0.74, 0.26],
    "exposure": {"S=0": 1e-9, "S=1": 0.28},
    "response": {"E=0,S=0": 1.0, "E=0,S=1": 1.0, "E=1,S=0": 1e-9, "E=1,S=1": 0.0},
}

# document 11291 of tests/audit_hash.py: P(S=1) P(E=1|S=1) = 0.131 * 5e-324
# underflows to 0 while P(E=1) = 3.4e-301 is normal, so even full mode read
# [0, 0.530] where the exact interval is [0.0428, 0.335]
FULL_MODE_UNDERFLOW = {
    "structure": "mediator_covariate",
    "covariate_prior": [0.3433633384423364, 0.1313273323115327, 0.5253093292461308],
    "exposure": {"S=0": 1e-300, "S=1": 5e-324, "S=2": -5e-10},
    "mediator": {
        "E=0,S=0": 0.5304358538745843,
        "E=0,S=1": 0.752223704193374,
        "E=0,S=2": 5e-324,
        "E=1,S=0": -5e-10,
        "E=1,S=1": 0.7921959722666175,
        "E=1,S=2": 1.0000000005,
    },
    "response": {
        "M=0,S=0": 1e-300,
        "M=0,S=1": 0.08943467886533896,
        "M=0,S=2": -5e-10,
        "M=1,S=0": 1e-300,
        "M=1,S=1": 0.7167939019508307,
        "M=1,S=2": 1e-300,
    },
}


@st.composite
def edge_scenario_docs(draw):
    """Scenario JSON of any structure, K = 1 to 4, with table entries from the edge region."""
    structure = draw(st.sampled_from(list(Structure)))
    doc = {"structure": structure.value}
    suffixes = [""]
    if structure.has_covariate:
        k = draw(st.integers(min_value=2, max_value=4))
        suffixes = [f",S={s}" for s in range(k)]
        raw = draw(st.lists(st.sampled_from((0.0, 0.25, 1.0)) | st.floats(0.05, 1.0), min_size=k, max_size=k))
        total = ordered_sum(raw)  # not `sum`, whose float total depends on the Python version
        assume(total > 0.0)
        doc["covariate_prior"] = [w / total for w in raw]
        doc["exposure"] = {f"S={s}": draw(edge_entries) for s in range(k)}
    elif draw(st.booleans()):
        doc["exposure"] = draw(edge_entries)
    if structure.has_mediator:
        doc["mediator"] = {f"E={e}{suffix}": draw(edge_entries) for e in (0, 1) for suffix in suffixes}
    cause = "M" if structure.has_mediator else "E"
    doc["response"] = {f"{cause}={v}{suffix}": draw(edge_entries) for v in (0, 1) for suffix in suffixes}
    return doc


def exact(value):
    """A float, or a tuple of them at any depth, as Fractions; None as None."""
    if value is None:
        return None
    return tuple(map(exact, value)) if isinstance(value, tuple) else Fraction(value)


def fraction_image(scenario: Scenario) -> Scenario:
    """The same scenario with every stored entry as the `Fraction` of its float."""
    return Scenario(scenario.structure, *map(exact, scenario[1:]))


@pytest.fixture
def data_dir() -> Path:
    return DATA


@pytest.fixture
def trial_counts():
    return read_counts_csv(DATA / "basic_trial.csv")


@pytest.fixture
def trial_scenario(trial_counts):
    return estimate_from_counts(trial_counts)


@pytest.fixture
def mediation_scenario():
    return load_scenario(DATA / "complete_mediation.json")


@pytest.fixture
def crossover_scenario():
    return load_scenario(DATA / "crossover_covariate.json")


@pytest.fixture
def confounded_scenario():
    return load_scenario(DATA / "mediated_confounding.json")
