"""Count tables, CSV input, and maximum-likelihood estimation."""

import os
import subprocess
import sys

import pytest

from causabound import (
    ContingencyTable,
    EmptyConditioningCellError,
    ScenarioFormatError,
    Structure,
    estimate_from_counts,
    expected_counts,
    load_scenario,
    read_counts_csv,
    structure_for_variables,
)
from conftest import DATA

# mediated_confounding_counts.csv with the E=1 rows of stratum S=1 emptied
EMPTY_EXPOSED_STRATUM = {
    (1, 1, 1, 0): 189, (1, 1, 0, 0): 81, (1, 0, 1, 0): 504, (1, 0, 0, 0): 126,
    (0, 1, 1, 0): 7, (0, 1, 0, 0): 3, (0, 0, 1, 0): 72, (0, 0, 0, 0): 18,
    (1, 1, 1, 1): 0, (1, 1, 0, 1): 0, (1, 0, 1, 1): 0, (1, 0, 0, 1): 0,
    (0, 1, 1, 1): 1944, (0, 1, 0, 1): 4536, (0, 0, 1, 1): 1458, (0, 0, 0, 1): 162,
}


class TestTable:
    def test_from_csv(self, trial_counts):
        assert trial_counts.variables == ("E", "R")
        assert trial_counts.total == 200
        assert trial_counts.count_where(E=1, R=1) == 30
        assert trial_counts.count_where(E=0) == 100

    def test_variables_are_canonically_ordered(self):
        table = ContingencyTable.from_cells(
            ("R", "E"), {(0, 0): 88, (1, 0): 12, (0, 1): 70, (1, 1): 30}
        )
        assert table.variables == ("E", "R")
        assert table.count_where(E=1, R=1) == 30

    def test_missing_assignment_rejected(self):
        with pytest.raises(ScenarioFormatError, match="missing count"):
            ContingencyTable.from_cells(("E", "R"), {(0, 0): 1, (0, 1): 2, (1, 0): 3})

    def test_negative_count_rejected(self):
        with pytest.raises(ScenarioFormatError, match="nonnegative"):
            ContingencyTable.from_cells(
                ("E", "R"), {(0, 0): -1, (0, 1): 2, (1, 0): 3, (1, 1): 4}
            )

    def test_all_zero_rejected(self):
        with pytest.raises(ScenarioFormatError, match="all counts are zero"):
            ContingencyTable.from_cells(
                ("E", "R"), {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
            )

    def test_csv_header_must_end_with_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("E,R,n\n1,1,30\n")
        with pytest.raises(ScenarioFormatError):
            read_counts_csv(path)

    def test_csv_without_rows_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("E,R,count\n")
        with pytest.raises(ScenarioFormatError):
            read_counts_csv(path)

    def test_csv_nonbinary_level_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("E,R,count\n2,1,30\n0,0,88\n0,1,12\n1,0,70\n")
        with pytest.raises(ScenarioFormatError):
            read_counts_csv(path)

    @pytest.mark.parametrize(
        "row",
        ["+0,0,88", "\u0660,0,88", "-0,0,88", "0,0,1_000", "0,0,\u0661\u0662", "0,0,-0"],
        ids=["plus-level", "arabic-indic-level", "minus-zero-level", "underscore-count", "arabic-indic-count",
             "minus-zero-count"],
    )
    def test_csv_entries_must_be_ascii_decimal_digits(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"E,R,count\n{row}\n0,1,12\n1,0,70\n1,1,30\n", encoding="utf-8")
        with pytest.raises(ScenarioFormatError) as err:
            read_counts_csv(path)
        assert str(err.value) == "line 2: entries must be integers"

    def test_csv_spaces_leading_zeros_and_negatives_keep_their_meaning(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text(" E , R ,count\n 0 ,00, 088 \n0,1,12\n1,0,70\n1,1,30\n", encoding="utf-8")
        assert read_counts_csv(path).cells[0] == ((0, 0), 88)
        path.write_text("E,R,count\n0,0,-5\n0,1,12\n1,0,70\n1,1,30\n", encoding="utf-8")
        with pytest.raises(ScenarioFormatError, match="line 2: negative count"):
            read_counts_csv(path)


class TestStructureForVariables:
    def test_all_four(self):
        assert structure_for_variables(("E", "R")) is Structure.BASIC
        assert structure_for_variables(("E", "M", "R")) is Structure.MEDIATOR
        assert structure_for_variables(("E", "R", "S")) is Structure.COVARIATE
        assert structure_for_variables(("E", "M", "R", "S")) is Structure.MEDIATOR_COVARIATE

    def test_unknown_set_rejected(self):
        with pytest.raises(ScenarioFormatError):
            structure_for_variables(("E",))

    def test_messages_name_variables_in_canonical_order_under_any_hash_seed(self):
        # a `set` of strings would print in an order that PYTHONHASHSEED picks
        code = (
            "from causabound import *\n"
            "for call in (lambda: structure_for_variables(('S', 'M', 'E')),\n"
            "             lambda: estimate_from_counts(read_counts_csv(%r), Structure.MEDIATOR_COVARIATE)):\n"
            "    try:\n"
            "        call()\n"
            "    except ScenarioFormatError as exc:\n"
            "        print(exc)\n"
        ) % str(DATA / "basic_trial.csv")
        expected = (
            "no structure observes exactly ['E', 'M', 'S']; need E and R, optionally M and/or S\n"
            "counts over ['E', 'R'] cannot estimate a mediator_covariate scenario (needs ['E', 'M', 'R', 'S'])\n"
        )
        for seed in range(6):
            env = {**os.environ, "PYTHONHASHSEED": str(seed)}
            done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
            assert done.stdout == expected, f"PYTHONHASHSEED={seed}"


class TestEstimation:
    def test_trial_rates_are_exact(self, trial_scenario):
        assert trial_scenario.structure is Structure.BASIC
        assert trial_scenario.response == ((0.12, 0.3),)
        assert trial_scenario.exposure == (0.5,)

    def test_doubling_counts_gives_identical_scenario(self, trial_counts):
        doubled = ContingencyTable.from_cells(
            trial_counts.variables,
            {a: 2 * c for a, c in trial_counts.cells},
        )
        assert estimate_from_counts(doubled, Structure.BASIC) == estimate_from_counts(
            trial_counts, Structure.BASIC
        )

    def test_one_sided_exposure_cannot_identify_response(self):
        table = ContingencyTable.from_cells(
            ("E", "R"), {(0, 0): 0, (0, 1): 0, (1, 0): 70, (1, 1): 30}
        )
        with pytest.raises(EmptyConditioningCellError):
            estimate_from_counts(table, Structure.BASIC)

    def test_structure_must_match_variables(self, trial_counts):
        with pytest.raises(ScenarioFormatError):
            estimate_from_counts(trial_counts, Structure.MEDIATOR)

    def test_stratified_counts_reproduce_scenario_exactly(self, confounded_scenario):
        table = read_counts_csv(DATA / "mediated_confounding_counts.csv")
        est = estimate_from_counts(table, structure_for_variables(table.variables))
        assert est == confounded_scenario

    def test_response_given_mediator_pools_over_exposure(self):
        # R depends on M only, but the two E-arms see different M mixes;
        # the pooled MLE must weight by the M-margin, not average the arms.
        table = ContingencyTable.from_cells(
            ("E", "M", "R"),
            {
                (0, 0, 0): 30, (0, 0, 1): 10,   # E=0, M=0: R rate 0.25
                (0, 1, 0): 5, (0, 1, 1): 15,    # E=0, M=1: R rate 0.75
                (1, 0, 0): 6, (1, 0, 1): 2,     # E=1, M=0: R rate 0.25
                (1, 1, 0): 18, (1, 1, 1): 54,   # E=1, M=1: R rate 0.75
            },
        )
        est = estimate_from_counts(table, Structure.MEDIATOR)
        assert est.response == ((12 / 48, 69 / 92),)
        assert est.mediator == ((20 / 60, 72 / 80),)

    def test_empty_mediator_cell(self):
        table = ContingencyTable.from_cells(
            ("E", "M", "R"),
            {
                (0, 0, 0): 30, (0, 0, 1): 10,
                (0, 1, 0): 0, (0, 1, 1): 0,
                (1, 0, 0): 6, (1, 0, 1): 2,
                (1, 1, 0): 0, (1, 1, 1): 0,
            },
        )
        with pytest.raises(EmptyConditioningCellError):
            estimate_from_counts(table, Structure.MEDIATOR)

    def test_empty_exposed_stratum_is_named(self):
        table = ContingencyTable.from_cells(("E", "M", "R", "S"), EMPTY_EXPOSED_STRATUM)
        with pytest.raises(EmptyConditioningCellError) as caught:
            estimate_from_counts(table, Structure.MEDIATOR_COVARIATE)
        assert str(caught.value) == "no observations with E=1,S=1; P(M=1|E=1,S=1) is 0/0"


class TestExpectedCounts:
    def test_saturated_fit_reproduces_the_table(self, trial_counts):
        est = estimate_from_counts(trial_counts, Structure.BASIC)
        fitted = expected_counts(est, trial_counts.total)
        for assignment, count in trial_counts.cells:
            assert fitted[assignment] == pytest.approx(count, abs=1e-9)
            assert round(fitted[assignment]) == count

    def test_model_consistent_stratified_fit_reproduces_the_table(self):
        table = read_counts_csv(DATA / "mediated_confounding_counts.csv")
        est = estimate_from_counts(table, Structure.MEDIATOR_COVARIATE)
        fitted = expected_counts(est, table.total)
        assert set(fitted) == {a for a, _ in table.cells}
        for assignment, count in table.cells:
            assert fitted[assignment] == pytest.approx(count, abs=1e-6)
            assert round(fitted[assignment]) == count

    def test_fitted_total_matches(self, crossover_scenario):
        fitted = expected_counts(crossover_scenario, 1000)
        assert sum(fitted.values()) == pytest.approx(1000, abs=1e-9)
