from pathlib import Path

import pytest

from causabound import estimate_from_counts, load_scenario, read_counts_csv

DATA = Path(__file__).parent / "data"


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
