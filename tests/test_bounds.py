"""Closed-form interval formulas, frozen against exact rational arithmetic."""

from fractions import Fraction

import pytest

from causabound import (
    AnalysisMode,
    Method,
    PcInterval,
    Scenario,
    Structure,
    UndefinedPcError,
    compute_intervals,
    derive_observables,
    pc_bounds,
)

APPROX = 1e-12


def bounds_for(scenario, mode=AnalysisMode.FULL):
    return pc_bounds(derive_observables(scenario, mode))


class TestBasic:
    def test_trial_interval_is_exact(self, trial_scenario):
        interval = bounds_for(trial_scenario)
        # 1 - 0.12/0.30 and min(1, 0.88/0.30) are exact in binary64
        assert interval.lower == 0.6
        assert interval.upper == 1.0

    def test_flat_risk_gives_vacuous_lower(self):
        sc = Scenario(Structure.BASIC, response=((0.5, 0.5),))
        interval = bounds_for(sc)
        assert interval.lower == 0.0
        assert interval.upper == 1.0

    def test_collapsed_crossover_display_values(self, crossover_scenario):
        interval = bounds_for(crossover_scenario, AnalysisMode.IGNORE_COVARIATE)
        assert interval.lower == pytest.approx(0.0, abs=APPROX)
        assert interval.upper == pytest.approx(float(Fraction(8, 17)), abs=APPROX)

    def test_ignore_both_interval(self, confounded_scenario):
        interval = bounds_for(confounded_scenario, AnalysisMode.IGNORE_BOTH)
        assert interval.lower == pytest.approx(float(Fraction(1398, 4879)), abs=APPROX)
        assert interval.upper == pytest.approx(float(Fraction(4719, 4879)), abs=APPROX)

    def test_infinite_risk_ratio_forces_lower_one(self):
        sc = Scenario(Structure.BASIC, response=((0.0, 0.3),))
        interval = bounds_for(sc)
        assert interval.lower == 1.0
        assert interval.upper == 1.0
        assert any("risk ratio" in note for note in interval.notes)

    def test_zero_exposed_risk_is_undefined(self):
        sc = Scenario(Structure.BASIC, response=((0.12, 0.0),))
        with pytest.raises(UndefinedPcError):
            bounds_for(sc)


class TestMediator:
    def test_mediation_interval(self, mediation_scenario):
        interval = bounds_for(mediation_scenario)
        assert interval.lower == pytest.approx(0.6, abs=APPROX)
        assert interval.upper == pytest.approx(float(Fraction(91, 120)), abs=APPROX)

    def test_ignoring_the_mediator_recovers_the_wide_interval(self, mediation_scenario):
        interval = bounds_for(mediation_scenario, AnalysisMode.IGNORE_MEDIATOR)
        assert interval.lower == pytest.approx(0.6, abs=APPROX)
        assert interval.upper == pytest.approx(1.0, abs=APPROX)

    def test_collapsed_confounding_interval(self, confounded_scenario):
        interval = bounds_for(confounded_scenario, AnalysisMode.IGNORE_COVARIATE)
        assert interval.lower == pytest.approx(float(Fraction(16389, 68962)), abs=APPROX)
        assert interval.upper == pytest.approx(float(Fraction(449577, 758582)), abs=APPROX)

    def test_deterministic_mediator_collapses_to_basic(self):
        # M a copy of E: a=b=1, so the numerator reduces to P(R=0|E=0)
        copycat = Scenario(Structure.MEDIATOR, response=((0.12, 0.3),), mediator=((0.0, 1.0),))
        plain = Scenario(Structure.BASIC, response=((0.12, 0.3),))
        got = bounds_for(copycat)
        want = bounds_for(plain)
        assert got.lower == pytest.approx(want.lower, abs=APPROX)
        assert got.upper == pytest.approx(want.upper, abs=APPROX)

    def test_tie_between_branch_expressions(self):
        # m0+m1=1 and q0+q1=1: adjacent cells of the four-branch numerator coincide
        sc = Scenario(Structure.MEDIATOR, response=((0.4, 0.6),), mediator=((0.5, 0.5),))
        obs = derive_observables(sc, AnalysisMode.FULL)
        [(m0, m1, q0, q1)] = obs.stratum_mediator_summary
        assert m0 + m1 == 1 and q0 + q1 == 1
        n_low_low = (1 - m0) * (1 - q0) + (1 - m1) * (1 - q1)
        n_high_low = m1 * (1 - q0) + m0 * (1 - q1)
        n_low_high = (1 - m0) * q1 + (1 - m1) * q0
        n_high_high = m1 * q1 + m0 * q0
        assert n_low_low == n_high_low == n_low_high == n_high_high
        interval = pc_bounds(obs)
        assert interval.upper == pytest.approx(
            min(1.0, n_low_low / obs.p_r1_given_e1), abs=APPROX
        )

    @pytest.mark.parametrize("rare", [1e-12, 1e-300])
    def test_rare_response_upper_bound_keeps_its_precision(self, rare):
        # m0 + m1 < 1 and q0 + q1 < 1, so N = m1 q1 + m0 q0 with both terms near 1e-300 or 1e-12
        sc = Scenario(
            Structure.MEDIATOR,
            response=((rare, rare),),
            mediator=((0.42076070807229715, 0.12444584205207876),),
        )
        closed, oracle = compute_intervals(sc, AnalysisMode.FULL, (Method.CLOSED_FORM, Method.ORACLE))
        assert closed.upper == pytest.approx(oracle.upper, abs=1e-12)
        assert closed.lower == pytest.approx(oracle.lower, abs=1e-12)
        assert closed.upper == pytest.approx(0.42076070807229715 + 0.12444584205207876, abs=1e-12)

    def test_refinement_never_exceeds_basic_upper(self, mediation_scenario):
        refined = bounds_for(mediation_scenario)
        marginal = bounds_for(mediation_scenario, AnalysisMode.IGNORE_MEDIATOR)
        assert refined.upper <= marginal.upper + 1e-15
        assert refined.lower == marginal.lower


class TestCovariate:
    def test_crossover_interval(self, crossover_scenario):
        interval = bounds_for(crossover_scenario)
        assert interval.lower == pytest.approx(float(Fraction(12, 17)), abs=APPROX)
        assert interval.upper == pytest.approx(1.0, abs=APPROX)

    def test_chain_rows_interval(self, confounded_scenario):
        interval = bounds_for(confounded_scenario, AnalysisMode.IGNORE_MEDIATOR)
        assert interval.lower == pytest.approx(0.0, abs=APPROX)
        assert interval.upper == pytest.approx(float(Fraction(9, 17)), abs=APPROX)

    def test_single_effective_stratum_matches_basic(self):
        stratified = Scenario(
            Structure.COVARIATE,
            response=((0.12, 0.3), (0.9, 0.9)),
            exposure=(0.5, 0.5),
            covariate_prior=(1.0, 0.0),
        )
        plain = Scenario(Structure.BASIC, response=((0.12, 0.3),))
        got = bounds_for(stratified)
        want = bounds_for(plain)
        assert got.lower == pytest.approx(want.lower, abs=APPROX)
        assert got.upper == pytest.approx(want.upper, abs=APPROX)


class TestMediatorCovariate:
    def test_confounded_interval_and_intermediates(self, confounded_scenario):
        obs = derive_observables(confounded_scenario, AnalysisMode.FULL)
        # per-stratum numerators 0.09 and 0.16, weights 0.5/0.5, denominator 0.595
        m0, m1, q0, q1 = obs.stratum_mediator_summary[0]
        n0 = m1 * (1 - q0) + m0 * (1 - q1)  # m0+m1<1, q0+q1>=1 branch
        assert n0 == pytest.approx(0.09, abs=APPROX)
        m0, m1, q0, q1 = obs.stratum_mediator_summary[1]
        n1 = (1 - m0) * (1 - q0) + (1 - m1) * (1 - q1)  # m0+m1>=1, q0+q1>=1 branch
        assert n1 == pytest.approx(0.16, abs=APPROX)
        denominator = sum(
            w * r[1] for w, r in zip(obs.stratum_weights, obs.stratum_response)
        )
        assert denominator == pytest.approx(0.595, abs=APPROX)
        interval = pc_bounds(obs)
        assert interval.lower == pytest.approx(0.0, abs=APPROX)
        assert interval.upper == pytest.approx(float(Fraction(25, 119)), abs=APPROX)

    def test_vanishing_stratum_matches_plain_mediator(self):
        stratified = Scenario(
            Structure.MEDIATOR_COVARIATE,
            response=((0.9, 0.1), (0.5, 0.5)),
            mediator=((0.975, 0.75), (0.5, 0.5)),
            exposure=(0.5, 0.5),
            covariate_prior=(1.0, 0.0),
        )
        plain = Scenario(Structure.MEDIATOR, response=((0.9, 0.1),), mediator=((0.975, 0.75),))
        got = bounds_for(stratified)
        want = bounds_for(plain)
        assert got.lower == pytest.approx(want.lower, abs=APPROX)
        assert got.upper == pytest.approx(want.upper, abs=APPROX)

    def test_copycat_mediator_matches_covariate(self, crossover_scenario):
        copycat = Scenario(
            Structure.MEDIATOR_COVARIATE,
            response=crossover_scenario.response,
            mediator=((0.0, 1.0), (0.0, 1.0)),
            exposure=crossover_scenario.exposure,
            covariate_prior=crossover_scenario.covariate_prior,
        )
        got = bounds_for(copycat)
        want = bounds_for(crossover_scenario)
        assert got.lower == pytest.approx(want.lower, abs=APPROX)
        assert got.upper == pytest.approx(want.upper, abs=APPROX)

    def test_stratified_refinement(self, confounded_scenario):
        refined = bounds_for(confounded_scenario)
        coarse = bounds_for(confounded_scenario, AnalysisMode.IGNORE_MEDIATOR)
        assert refined.upper <= coarse.upper + 1e-15
        assert refined.lower == pytest.approx(coarse.lower, abs=APPROX)


class TestScaleFree:
    def test_exposure_marginal_does_not_move_basic_bounds(self, trial_scenario):
        shifted = trial_scenario._replace(exposure=(0.9,))
        assert bounds_for(shifted) == bounds_for(trial_scenario)

    def test_exposure_marginal_does_not_move_mediator_bounds(self, mediation_scenario):
        shifted = mediation_scenario._replace(exposure=(0.25,))
        assert bounds_for(shifted) == bounds_for(mediation_scenario)


class TestRiskRatioThreshold:
    def test_lower_exceeds_half_iff_rr_exceeds_two(self):
        for r0, r1 in ((0.1, 0.21), (0.1, 0.2), (0.1, 0.19), (0.3, 0.9), (0.4, 0.5)):
            interval = bounds_for(Scenario(Structure.BASIC, response=((r0, r1),)))
            assert (interval.lower > 0.5) == (r1 / r0 > 2)


class TestPcInterval:
    def test_ordering_is_enforced(self):
        with pytest.raises(ValueError):
            PcInterval(0.7, 0.3)

    def test_range_is_enforced(self):
        with pytest.raises(ValueError):
            PcInterval(-0.1, 0.3)
        with pytest.raises(ValueError):
            PcInterval(0.5, 1.2)

    def test_width(self):
        interval = PcInterval(0.25, 0.75)
        assert interval.width == 0.5

    def test_all_fixture_intervals_are_well_formed(
        self, trial_scenario, mediation_scenario, crossover_scenario, confounded_scenario
    ):
        from causabound import applicable_modes

        for sc in (trial_scenario, mediation_scenario, crossover_scenario, confounded_scenario):
            for mode in applicable_modes(sc.structure):
                interval = bounds_for(sc, mode)
                assert 0.0 <= interval.lower <= interval.upper <= 1.0
