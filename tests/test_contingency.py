"""Count tables, CSV input, and maximum-likelihood estimation."""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from causabound import (
    ContingencyTable,
    EmptyConditioningCellError,
    ScenarioFormatError,
    Structure,
    estimate_from_counts,
    load_scenario,
    read_counts_csv,
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

    def test_constructor_rejects_variables_out_of_canonical_order(self):
        cells = tuple((a, 1) for a in itertools.product((0, 1), repeat=2))
        with pytest.raises(ScenarioFormatError) as caught:
            ContingencyTable(("R", "E"), (2, 2), cells)
        assert str(caught.value) == "variables ('R', 'E') not in canonical order"

    def test_exposure_level_two_rejected(self):
        counts = {(e, r): 1 for e in (0, 1, 2) for r in (0, 1)}
        with pytest.raises(ScenarioFormatError) as caught:
            ContingencyTable.from_cells(("E", "R"), counts)
        assert str(caught.value) == "assignments out of range: [(2, 0), (2, 1)]"

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda cells: cells[1:], "missing count for assignment {'E': 0, 'R': 0}"),
            (lambda cells: cells + (((2, 0), 1),), "assignments out of range: [(2, 0)]"),
            (lambda cells: cells + cells[-1:], "cells must cover every assignment exactly once, sorted"),
        ],
        ids=["missing", "out-of-range", "duplicate"],
    )
    def test_constructor_names_what_the_cells_miss(self, trial_counts, change, message):
        with pytest.raises(ScenarioFormatError) as caught:
            ContingencyTable(trial_counts.variables, trial_counts.levels, change(trial_counts.cells))
        assert str(caught.value) == message
        with pytest.raises(ScenarioFormatError) as caught:
            trial_counts._replace(cells=change(trial_counts.cells))
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "key, shown",
        [
            ((0,), "(0,)"),
            (0, "0"),
            ("01", "'01'"),
            ((0, "1"), "(0, '1')"),
            ((0, True), "(0, True)"),
        ],
        ids=["short", "int", "str", "str-level", "bool-level"],
    )
    def test_malformed_assignment_rejected(self, key, shown):
        counts = {(0, 0): 88, (1, 0): 70, (1, 1): 30, key: 12}
        with pytest.raises(ScenarioFormatError) as caught:
            ContingencyTable.from_cells(("E", "R"), counts)
        assert str(caught.value) == f"assignment {shown} must be a tuple of 2 integer levels"

    def test_long_assignment_is_not_cut_into_another_cell(self):
        # cut to two levels, (0, 0, 0) would be merged into (0, 0), and its count lost or overwritten
        counts = {(0, 0, 0): 5, (0, 0, 1): 7, (0, 1): 1, (1, 0): 1, (1, 1): 1}
        with pytest.raises(ScenarioFormatError, match=r"assignment \(0, 0, 0\) must be a tuple of 2 integer levels"):
            ContingencyTable.from_cells(("E", "R"), counts)

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

    @pytest.mark.parametrize("variables", [("E", "M"), ("M", "R", "S")], ids=["no-R", "no-E"])
    def test_table_without_e_and_r_rejected(self, trial_counts, variables):
        levels = tuple(3 if v == "S" else 2 for v in variables)
        cells = tuple((a, 1) for a in itertools.product(*map(range, levels)))
        with pytest.raises(ScenarioFormatError, match="counts must include both E and R"):
            ContingencyTable(variables, levels, cells)
        with pytest.raises(ScenarioFormatError, match="counts must include both E and R"):
            trial_counts._replace(variables=variables, levels=levels, cells=cells)

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

    @pytest.mark.parametrize(
        "text, line",
        [
            ("E,R,count\n\n\n0,0,x\n0,1,12\n1,0,70\n1,1,30\n", 4),
            ("\n \n,\nE,R,count\n0,0,x\n0,1,12\n1,0,70\n1,1,30\n", 5),
            ("E,R,count\n\n0,0,88\n\n0,1,12\n\n1,0,x\n\n1,1,30\n\n", 7),
            ("E,R,count\r\n\r\n0,0,88\r\n\r\n0,1,x\r\n", 5),
        ],
        ids=["blank-lines-between-rows", "blank-lines-before-header", "double-newline-endings", "crlf-blank-lines"],
    )
    def test_csv_messages_name_the_file_line_past_blank_lines(self, tmp_path, text, line):
        path = tmp_path / "blank.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ScenarioFormatError) as err:
            read_counts_csv(path)
        assert str(err.value) == f"line {line}: entries must be integers"


class TestLargeLevels:
    """A level with no rows is a missing count, found without enumerating the levels."""

    CELLS = tuple(((e, r, 0), 5) for e in (0, 1) for r in (0, 1))
    MISSING = "missing count for assignment {'E': 0, 'R': 0, 'S': 1}"

    def test_level_past_any_container_size(self):
        with pytest.raises(ScenarioFormatError) as caught:
            ContingencyTable(("E", "R", "S"), (2, 2, 10**30), self.CELLS)
        assert str(caught.value) == self.MISSING

    def test_coverage_check_allocates_by_the_cells_not_the_levels(self):
        counts = {**dict(self.CELLS), (0, 0, 3_000_000): 1}
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioFormatError) as caught:
                ContingencyTable.from_cells(("E", "R", "S"), counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value) == self.MISSING
        assert peak < 5 * 2**20


class TestStructureForVariables:
    @pytest.mark.parametrize("structure", list(Structure), ids=lambda s: s.value)
    def test_columns_in_any_order_name_their_structure(self, tmp_path, structure):
        columns = list(structure.variables)
        random.Random(structure.value).shuffle(columns)
        levels = [3 if v == "S" else 2 for v in columns]
        rows = [",".join(map(str, a)) + f",{7 + i}" for i, a in enumerate(itertools.product(*map(range, levels)))]
        path = tmp_path / "shuffled.csv"
        path.write_text(",".join(columns) + ",count\n" + "\n".join(rows) + "\n", encoding="utf-8")
        table = read_counts_csv(path)
        assert table.variables == structure.variables
        assert estimate_from_counts(table).structure is structure

    def test_messages_name_variables_in_canonical_order_under_any_hash_seed(self, tmp_path):
        # a `set` of strings would print in an order that PYTHONHASHSEED picks
        path = tmp_path / "unknown.csv"
        path.write_text("Z,E,Y,R,count\n0,0,0,0,1\n", encoding="utf-8")
        code = (
            "from causabound import *\n"
            "try:\n"
            "    read_counts_csv(%r)\n"
            "except ScenarioFormatError as exc:\n"
            "    print(exc)\n"
        ) % str(path)
        expected = "unknown variables in header: ['Y', 'Z']\n"
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
        assert estimate_from_counts(doubled) == estimate_from_counts(trial_counts)

    # the sets of conditioned variables estimation asks for: (), E, E+R for basic, and S and their S-refinements
    # (E+S, M+S, E+M+S, M+R+S for mediator_covariate) where S is present
    @pytest.mark.parametrize(
        "structure, sets",
        [(Structure.BASIC, 3), (Structure.MEDIATOR, 5), (Structure.COVARIATE, 4), (Structure.MEDIATOR_COVARIATE, 6)],
        ids=lambda x: x.value if isinstance(x, Structure) else None,
    )
    def test_each_margin_set_asked_for_is_summed_in_one_pass(self, structure, sets):
        rng = random.Random(structure.value)
        levels = [3 if v == "S" else 2 for v in structure.variables]
        table = ContingencyTable.from_cells(
            structure.variables, {a: rng.randint(1, 9) for a in itertools.product(*map(range, levels))}
        )
        passes = 0

        class CountedCells(tuple):
            def __iter__(self):
                nonlocal passes
                passes += 1
                return super().__iter__()

        counted = table._replace(cells=CountedCells(table.cells))
        passes = 0
        estimate = estimate_from_counts(counted)
        assert passes == sets
        # each conditional against `count_where`, which scans the cells afresh
        for s, stratum in enumerate(structure.strata(table.s_levels)):
            condition = dict(stratum)
            if structure.has_covariate:
                assert estimate.covariate_prior[s] == table.count_where(**condition) / table.total
            assert estimate.exposure[s] == table.count_where(E=1, **condition) / table.count_where(**condition)
            for name, var, cond_var in structure.tables:
                for v in (0, 1):
                    given = {cond_var: v, **condition}
                    expected = table.count_where(**{var: 1}, **given) / table.count_where(**given)
                    assert getattr(estimate, name)[s][v] == expected, (name, s, v)

    def test_one_sided_exposure_cannot_identify_response(self):
        table = ContingencyTable.from_cells(
            ("E", "R"), {(0, 0): 0, (0, 1): 0, (1, 0): 70, (1, 1): 30}
        )
        with pytest.raises(EmptyConditioningCellError):
            estimate_from_counts(table)

    def test_stratified_counts_reproduce_scenario_exactly(self, confounded_scenario):
        table = read_counts_csv(DATA / "mediated_confounding_counts.csv")
        est = estimate_from_counts(table)
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
        est = estimate_from_counts(table)
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
            estimate_from_counts(table)

    def test_empty_exposed_stratum_is_named(self):
        table = ContingencyTable.from_cells(("E", "M", "R", "S"), EMPTY_EXPOSED_STRATUM)
        with pytest.raises(EmptyConditioningCellError) as caught:
            estimate_from_counts(table)
        assert str(caught.value) == "no observations with E=1,S=1; P(M=1|E=1,S=1) is 0/0"
