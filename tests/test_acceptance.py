"""Acceptance gate: one test per published claim, one PASS/FAIL line each.

Each criterion prints its verdict even under pytest's capture so the gate
reads as a checklist.  Tolerances are part of the claims and are asserted
exactly as stated, not loosened.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from causabound import (
    AnalysisMode,
    Method,
    Relation,
    Scenario,
    Structure,
    derive_observables,
    equivalence_sweep,
    frechet_box,
    grid_scan_bounds,
    oracle_bounds,
    pc_bounds,
    random_scenario,
    reduce_scenario,
    run_audit,
)
from causabound.cli import main
from conftest import DATA


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(number, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"acceptance {number} ({label}): FAIL")
            raise
        else:
            with capsys.disabled():
                print(f"acceptance {number} ({label}): PASS")

    return _criterion


def test_criterion_1_trial_counts_exact_interval(criterion, capsys):
    with criterion(1, "trial counts give [0.60, 1.00] exactly"):
        code = main(["bound", str(DATA / "basic_trial.csv")])
        out = capsys.readouterr().out
        assert code == 0
        entry = json.loads(out)["intervals"][0]
        assert entry["lower"] == 0.6
        assert entry["upper"] == 1.0


def test_criterion_2_mediation_methods_agree(criterion, mediation_scenario):
    with criterion(2, "mediation: closed form and oracle agree"):
        closed = pc_bounds(derive_observables(mediation_scenario, AnalysisMode.FULL))
        cert = oracle_bounds(mediation_scenario)
        assert abs(closed.lower - cert.interval.lower) <= 1e-9
        assert abs(closed.upper - cert.interval.upper) <= 1e-9
        for interval in (closed, cert.interval):
            assert abs(interval.lower - 0.60) <= 5e-3
            assert abs(interval.upper - 0.76) <= 5e-3
        assert abs(closed.lower - 0.6) <= 1e-9
        assert abs(closed.upper - float(Fraction(91, 120))) <= 1e-9


def test_criterion_3_crossover_disjoint_audit(criterion, crossover_scenario):
    with criterion(3, "covariate crossover: biased interval disjoint"):
        full = pc_bounds(derive_observables(crossover_scenario, AnalysisMode.FULL))
        biased = pc_bounds(
            derive_observables(crossover_scenario, AnalysisMode.IGNORE_COVARIATE)
        )
        assert abs(full.lower - float(Fraction(12, 17))) <= 1e-9
        assert abs(full.upper - 1.0) <= 1e-9
        assert abs(biased.lower - 0.0) <= 1e-9
        assert abs(biased.upper - float(Fraction(8, 17))) <= 1e-9
        report = run_audit(crossover_scenario, methods=(Method.CLOSED_FORM,))
        assert (
            report.relation(
                AnalysisMode.FULL,
                Method.CLOSED_FORM,
                AnalysisMode.IGNORE_COVARIATE,
                Method.CLOSED_FORM,
            )
            is Relation.DISJOINT
        )
        assert report.headline_disagreement


def test_criterion_4_confounding_four_way_audit(criterion, confounded_scenario):
    with criterion(4, "confounded mediation: four-way audit displays"):
        report = run_audit(confounded_scenario, methods=(Method.CLOSED_FORM,))
        displays = {}
        for mode in (
            AnalysisMode.FULL,
            AnalysisMode.IGNORE_MEDIATOR,
            AnalysisMode.IGNORE_COVARIATE,
            AnalysisMode.IGNORE_BOTH,
        ):
            interval = report.entry(mode, Method.CLOSED_FORM).interval
            displays[mode] = (f"{interval.lower:.2f}", f"{interval.upper:.2f}")
        assert displays[AnalysisMode.FULL] == ("0.00", "0.21")
        assert displays[AnalysisMode.IGNORE_MEDIATOR] == ("0.00", "0.53")
        assert displays[AnalysisMode.IGNORE_COVARIATE] == ("0.24", "0.59")
        assert displays[AnalysisMode.IGNORE_BOTH] == ("0.29", "0.97")

        def rel(a, b):
            return report.relation(a, Method.CLOSED_FORM, b, Method.CLOSED_FORM)

        assert rel(AnalysisMode.FULL, AnalysisMode.IGNORE_COVARIATE) is Relation.DISJOINT
        assert rel(AnalysisMode.FULL, AnalysisMode.IGNORE_BOTH) is Relation.DISJOINT
        assert rel(AnalysisMode.FULL, AnalysisMode.IGNORE_MEDIATOR) is Relation.NESTED
        full = report.entry(AnalysisMode.FULL, Method.CLOSED_FORM).interval
        coarse = report.entry(AnalysisMode.IGNORE_MEDIATOR, Method.CLOSED_FORM).interval
        assert coarse.lower <= full.lower + 1e-12
        assert coarse.upper >= full.upper - 1e-12


def test_criterion_5_oracle_equivalence_sweep(criterion, capsys):
    with criterion(5, "oracle equivalence: 1000 scenarios per structure"):
        report = equivalence_sweep(seed=42, trials=1000)
        assert report.ok
        assert report.max_discrepancy <= 1e-9
        code = main(["oracle-check", "--seed", "42", "--trials", "1000"])
        capsys.readouterr()
        assert code == 0


def test_criterion_6_refinement_orderings(criterion):
    with criterion(6, "refinement: mediator and stratified orderings"):
        rng = random.Random(42)
        for _ in range(1000):
            scenario = random_scenario(rng, Structure.MEDIATOR)
            fine = pc_bounds(derive_observables(scenario, AnalysisMode.FULL))
            coarse = pc_bounds(
                derive_observables(scenario, AnalysisMode.IGNORE_MEDIATOR)
            )
            assert fine.upper <= coarse.upper + 1e-12
            assert fine.lower == coarse.lower
        for _ in range(1000):
            scenario = random_scenario(rng, Structure.MEDIATOR_COVARIATE)
            fine = pc_bounds(derive_observables(scenario, AnalysisMode.FULL))
            coarse = pc_bounds(
                derive_observables(scenario, AnalysisMode.IGNORE_MEDIATOR)
            )
            assert fine.lower >= coarse.lower - 1e-12
            assert fine.upper <= coarse.upper + 1e-12


def test_criterion_7_risk_ratio_threshold(criterion):
    with criterion(7, "risk-ratio threshold and strong-exposure floor"):
        rng = random.Random(7)
        for _ in range(500):
            scenario = random_scenario(rng, Structure.BASIC)
            obs = derive_observables(scenario, AnalysisMode.FULL)
            interval = pc_bounds(obs)
            assert (interval.lower > 0.5) == (obs.risk_ratio > 2)
        strong = Scenario(Structure.BASIC, response=((0.01, 0.334),))
        obs = derive_observables(strong, AnalysisMode.FULL)
        assert obs.risk_ratio >= 33.4
        assert pc_bounds(obs).lower >= 0.97


def test_criterion_8_frechet_count_range(criterion):
    with criterion(8, "frechet benefit-cell range is [18, 30] per 100"):
        box = frechet_box(0.12, 0.3)
        low, high = box.cell_range(0, 1)
        assert (low * 100, high * 100) == (18.0, 30.0)


def test_criterion_9_corner_sufficiency(criterion):
    with criterion(9, "corner search beats a 201-point grid"):
        rng = random.Random(11)
        for _ in range(200):
            scenario = random_scenario(rng, Structure.MEDIATOR)
            cert = oracle_bounds(scenario)
            grid = grid_scan_bounds(scenario, 201)
            assert grid.lower >= cert.interval.lower - 1e-9
            assert grid.upper <= cert.interval.upper + 1e-9
