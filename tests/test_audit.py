"""Correct-vs-biased interval comparison reports."""

import json
import random

import pytest

from causabound import audit as audit_module
from causabound import observables as observables_module
from causabound import (
    AnalysisMode,
    Method,
    PcInterval,
    Relation,
    Scenario,
    Structure,
    applicable_modes,
    classify_relation,
    compute_intervals,
    random_scenario,
    run_audit,
    scenario_digest,
    scenario_from_dict,
    validate_scenario,
)
from causabound.checks import TOLERANCE
from causabound.cli import EXIT_OK, main
from conftest import DATA


def interval(lower, upper):
    return PcInterval(lower, upper)


class TestRelationClassifier:
    def test_nested(self):
        assert classify_relation(interval(0.2, 0.4), interval(0.1, 0.5)) is Relation.NESTED
        assert classify_relation(interval(0.1, 0.5), interval(0.2, 0.4)) is Relation.NESTED

    def test_nested_respects_slack(self):
        inner = interval(0.1 - 5e-13, 0.5 + 5e-13)
        outer = interval(0.1, 0.5)
        assert classify_relation(inner, outer) is Relation.NESTED

    def test_identical_intervals_are_nested(self):
        assert classify_relation(interval(0.2, 0.4), interval(0.2, 0.4)) is Relation.NESTED

    def test_overlapping(self):
        assert (
            classify_relation(interval(0.1, 0.4), interval(0.3, 0.6))
            is Relation.OVERLAPPING
        )

    def test_shared_endpoint_is_not_disjoint(self):
        assert (
            classify_relation(interval(0.1, 0.3), interval(0.3, 0.6))
            is Relation.OVERLAPPING
        )

    def test_disjoint_is_strict(self):
        assert classify_relation(interval(0.1, 0.3), interval(0.4, 0.6)) is Relation.DISJOINT
        assert classify_relation(interval(0.4, 0.6), interval(0.1, 0.3)) is Relation.DISJOINT

    def test_symmetry(self):
        pairs = [
            (interval(0.2, 0.4), interval(0.1, 0.5)),
            (interval(0.1, 0.4), interval(0.3, 0.6)),
            (interval(0.1, 0.3), interval(0.4, 0.6)),
        ]
        for a, b in pairs:
            assert classify_relation(a, b) is classify_relation(b, a)


class TestApplicableModes:
    def test_per_structure(self):
        assert applicable_modes(Structure.BASIC) == (AnalysisMode.FULL,)
        assert applicable_modes(Structure.MEDIATOR) == (
            AnalysisMode.FULL,
            AnalysisMode.IGNORE_MEDIATOR,
        )
        assert applicable_modes(Structure.COVARIATE) == (
            AnalysisMode.FULL,
            AnalysisMode.IGNORE_COVARIATE,
        )
        assert applicable_modes(Structure.MEDIATOR_COVARIATE) == (
            AnalysisMode.FULL,
            AnalysisMode.IGNORE_MEDIATOR,
            AnalysisMode.IGNORE_COVARIATE,
            AnalysisMode.IGNORE_BOTH,
        )


class TestRunAudit:
    def test_basic_audit_is_a_single_clean_entry(self, trial_scenario):
        report = run_audit(trial_scenario, methods=(Method.CLOSED_FORM,))
        assert len(report.entries) == 1
        assert report.entries[0].mode is AnalysisMode.FULL
        assert not report.headline_disagreement

    def test_crossover_audit_flags_the_disjoint_collapse(self, crossover_scenario):
        report = run_audit(crossover_scenario, methods=(Method.CLOSED_FORM, Method.ORACLE))
        full = report.entry(AnalysisMode.FULL, Method.CLOSED_FORM).interval
        biased = report.entry(AnalysisMode.IGNORE_COVARIATE, Method.CLOSED_FORM).interval
        assert full.lower > biased.upper
        relation = report.relation(
            AnalysisMode.FULL,
            Method.CLOSED_FORM,
            AnalysisMode.IGNORE_COVARIATE,
            Method.CLOSED_FORM,
        )
        assert relation is Relation.DISJOINT
        assert report.headline_disagreement

    def test_confounded_audit_matrix(self, confounded_scenario):
        report = run_audit(confounded_scenario, methods=(Method.CLOSED_FORM,))

        def get(mode):
            return report.entry(mode, Method.CLOSED_FORM).interval

        def rel(a, b):
            return report.relation(a, Method.CLOSED_FORM, b, Method.CLOSED_FORM)

        assert rel(AnalysisMode.FULL, AnalysisMode.IGNORE_MEDIATOR) is Relation.NESTED
        assert rel(AnalysisMode.FULL, AnalysisMode.IGNORE_COVARIATE) is Relation.DISJOINT
        assert rel(AnalysisMode.FULL, AnalysisMode.IGNORE_BOTH) is Relation.DISJOINT
        assert get(AnalysisMode.FULL).upper < get(AnalysisMode.IGNORE_COVARIATE).lower
        assert report.headline_disagreement

    def test_relation_matrix_is_symmetric(self, confounded_scenario):
        report = run_audit(confounded_scenario, methods=(Method.CLOSED_FORM, Method.ORACLE))
        n = len(report.entries)
        assert len(report.relations) == n
        for i in range(n):
            assert len(report.relations[i]) == n
            for j in range(n):
                assert report.relations[i][j] is report.relations[j][i]

    def test_relation_matrix_is_the_classifier_where_rows_are_missing(self):
        # P(E=0) = 0, so both ignore-covariate rows fail
        doc = (
            '{"structure":"covariate","covariate_prior":[0.5,0.5],"exposure":{"S=0":1.0,"S=1":1.0},'
            '"response":{"E=0,S=0":0.1,"E=1,S=0":0.4,"E=0,S=1":0.2,"E=1,S=1":0.7}}'
        )
        rng = random.Random(15)
        scenarios = [scenario_from_dict(json.loads(doc))]
        scenarios += [random_scenario(rng, structure) for structure in Structure for _ in range(5)]
        reports = [run_audit(sc, methods=(Method.CLOSED_FORM, Method.ORACLE)) for sc in scenarios]
        assert [e.interval is None for e in reports[0].entries] == [False, False, True, True]
        for report in reports:
            intervals = [e.interval for e in report.entries]
            for i, a in enumerate(intervals):
                for j, b in enumerate(intervals):
                    expected = None if a is None or b is None else classify_relation(a, b)
                    assert report.relations[i][j] is expected

    def test_each_entry_pair_is_classified_once(self, confounded_scenario, monkeypatch):
        pairs = []

        def counting(a, b):
            pairs.append((a, b))
            return classify_relation(a, b)

        monkeypatch.setattr(audit_module, "classify_relation", counting)
        report = run_audit(confounded_scenario, methods=(Method.CLOSED_FORM, Method.ORACLE))
        n = len(report.entries)
        assert n == 8
        assert len(pairs) == n * (n + 1) // 2

    def test_mediator_structure_headline_is_always_false(self, mediation_scenario):
        report = run_audit(mediation_scenario, methods=(Method.CLOSED_FORM, Method.ORACLE))
        full = report.entry(AnalysisMode.FULL, Method.CLOSED_FORM).interval
        blind = report.entry(AnalysisMode.IGNORE_MEDIATOR, Method.CLOSED_FORM).interval
        assert blind.lower <= full.lower + 1e-12
        assert blind.upper >= full.upper - 1e-12
        assert not report.headline_disagreement

    def test_headline_agrees_across_methods(self, crossover_scenario, confounded_scenario):
        for sc in (crossover_scenario, confounded_scenario):
            closed = run_audit(sc, methods=(Method.CLOSED_FORM,))
            oracle = run_audit(sc, methods=(Method.ORACLE,))
            assert closed.headline_disagreement == oracle.headline_disagreement

    def test_per_mode_failure_is_recorded_not_fatal(self):
        sc = Scenario(
            Structure.COVARIATE,
            response=((0.2, 0.8), (0.8, 0.2)),
            exposure=(1.0, 1.0),
            covariate_prior=(0.5, 0.5),
        )
        report = run_audit(sc, methods=(Method.CLOSED_FORM,))
        full = report.entry(AnalysisMode.FULL, Method.CLOSED_FORM)
        biased = report.entry(AnalysisMode.IGNORE_COVARIATE, Method.CLOSED_FORM)
        assert full.error is None and full.interval is not None
        assert biased.interval is None
        assert biased.error
        # a failed entry cannot participate in relations
        assert (
            report.relation(
                AnalysisMode.FULL,
                Method.CLOSED_FORM,
                AnalysisMode.IGNORE_COVARIATE,
                Method.CLOSED_FORM,
            )
            is None
        )
        assert not report.headline_disagreement

    def test_entry_and_relation_name_a_missing_pair(self, trial_scenario):
        report = run_audit(trial_scenario, methods=(Method.CLOSED_FORM,))
        with pytest.raises(KeyError, match=r"no audit entry for \(full, oracle\)"):
            report.entry(AnalysisMode.FULL, Method.ORACLE)
        with pytest.raises(KeyError, match=r"no audit entry for \(ignore-mediator, closed\)"):
            report.relation(AnalysisMode.FULL, Method.CLOSED_FORM, AnalysisMode.IGNORE_MEDIATOR, Method.CLOSED_FORM)
        assert report.relation("full", "closed", "full", "closed") is Relation.NESTED

    def test_zero_exposure_gives_both_methods_one_error(self):
        # P(E=1) = 0: the closed form and the oracle share the stratum weights
        sc = Scenario(
            Structure.COVARIATE,
            response=((0.2, 0.8), (0.8, 0.2)),
            exposure=(0.0, 0.0),
            covariate_prior=(0.5, 0.5),
        )
        report = run_audit(sc, methods=(Method.CLOSED_FORM, Method.ORACLE))
        closed = report.entry(AnalysisMode.FULL, Method.CLOSED_FORM)
        oracle = report.entry(AnalysisMode.FULL, Method.ORACLE)
        assert closed.interval is None and oracle.interval is None
        assert closed.error == oracle.error == "P(E=1) = 0: nothing is conditionally defined given E=1"

    def test_each_mode_is_reduced_once(self, confounded_scenario, monkeypatch):
        reductions = []
        reduce_scenario = observables_module.reduce_scenario

        def counting(scenario, mode):
            reductions.append(mode)
            return reduce_scenario(scenario, mode)

        monkeypatch.setattr(observables_module, "reduce_scenario", counting)
        monkeypatch.setattr(audit_module, "reduce_scenario", counting)
        run_audit(confounded_scenario, methods=(Method.CLOSED_FORM, Method.ORACLE))
        assert reductions == list(applicable_modes(Structure.MEDIATOR_COVARIATE))
        reductions.clear()
        assert main(["bound", str(DATA / "mediated_confounding.json"), "--method", "both"]) == EXIT_OK
        assert reductions == [AnalysisMode.FULL]

    def test_structure_recorded(self, crossover_scenario):
        report = run_audit(crossover_scenario, methods=(Method.CLOSED_FORM,))
        assert report.structure is Structure.COVARIATE


class TestScenarioDigest:
    def test_stable_across_equal_scenarios(self, crossover_scenario):
        clone = Scenario(
            Structure.COVARIATE,
            response=((0.2, 0.8), (0.8, 0.2)),
            exposure=(0.8, 0.2),
            covariate_prior=(0.5, 0.5),
        )
        assert scenario_digest(clone) == scenario_digest(crossover_scenario)

    def test_differs_for_different_scenarios(self, crossover_scenario, trial_scenario):
        assert scenario_digest(crossover_scenario) != scenario_digest(trial_scenario)


# four covariate rows (P(R=1|E=0,S=s), P(R=1|E=1,S=s)) whose P(R=1|E=1,S=s) average 7e-4
SPARSE_RESPONSE_ROWS = ((1e-4, 7e-4), (0.9996, 1e-3), (0.3, 4e-4), (2e-4, 7e-4))


def cycled_covariate_scenario(k):
    """K equally likely, equally exposed strata cycling SPARSE_RESPONSE_ROWS, so P(R=1|E=1) is about 7e-4."""
    response = tuple(SPARSE_RESPONSE_ROWS[s % 4] for s in range(k))
    return Scenario(Structure.COVARIATE, response, exposure=(0.5,) * k, covariate_prior=(1 / k,) * k)


class TestLargeK:
    """Hundreds to thousands of strata: the exact-path trigger's K factor, and agreement across modes."""

    BOTH = (Method.CLOSED_FORM, Method.ORACLE)

    @pytest.mark.parametrize(("k", "exact"), [(1024, False), (2048, True)])
    def test_trigger_scales_with_the_stratum_count(self, k, exact):
        # 4 K u / r1 is about 6.5e-10 at K = 1,024 and 1.3e-9 at K = 2,048, either side of the 1e-9 tolerance
        scenario = cycled_covariate_scenario(k)
        assert not validate_scenario(scenario)
        closed, oracle = compute_intervals(scenario, AnalysisMode.FULL, self.BOTH)
        for iv in (closed, oracle):
            assert any(note.endswith("endpoints computed exactly") for note in iv.notes) is exact, iv.notes
            assert 0.39 < iv.lower < 0.4 and 0.78 < iv.upper < 0.79, iv
        if exact:
            assert (closed.lower, closed.upper) == (oracle.lower, oracle.upper)
        else:
            assert abs(closed.lower - oracle.lower) <= TOLERANCE
            assert abs(closed.upper - oracle.upper) <= TOLERANCE

    def test_mediator_covariate_audit_methods_agree(self):
        rng, k = random.Random(1024), 1024
        raw = [rng.uniform(0.5, 1.5) for _ in range(k)]
        scenario = Scenario(
            Structure.MEDIATOR_COVARIATE,
            response=tuple((rng.random(), rng.random()) for _ in range(k)),
            mediator=tuple((rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)) for _ in range(k)),
            exposure=tuple(rng.uniform(0.1, 0.9) for _ in range(k)),
            covariate_prior=tuple(w / sum(raw) for w in raw),
        )
        assert not validate_scenario(scenario)
        report = run_audit(scenario, self.BOTH)
        assert [e.mode for e in report.entries[::2]] == list(applicable_modes(Structure.MEDIATOR_COVARIATE))
        for closed, oracle in zip(report.entries[::2], report.entries[1::2]):
            assert (closed.method, oracle.method, closed.mode) == (*self.BOTH, oracle.mode)
            assert closed.error is None and oracle.error is None
            assert abs(closed.interval.lower - oracle.interval.lower) <= TOLERANCE, closed.mode
            assert abs(closed.interval.upper - oracle.interval.upper) <= TOLERANCE, closed.mode
