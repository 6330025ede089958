"""Derivation of bound inputs: chain marginals, collapses, reductions."""

import random
from fractions import Fraction

import pytest

from causabound import (
    AnalysisMode,
    InapplicableModeError,
    Scenario,
    Structure,
    UndefinedConditionalError,
    applicable_modes,
    chain_response,
    derive_observables,
    pc_bounds,
    random_scenario,
    reduce_scenario,
)

APPROX = 1e-12


class TestChainResponse:
    def test_matches_hand_sum(self):
        # P(R=1|E=e) = P(R=1|M=1)P(M=1|E=e) + P(R=1|M=0)P(M=0|E=e)
        mediator = (0.975, 0.75)
        response = (0.9, 0.1)
        assert chain_response(mediator, response, 1) == pytest.approx(0.3, abs=APPROX)
        assert chain_response(mediator, response, 0) == pytest.approx(0.12, abs=APPROX)

    def test_degenerate_mediator_passes_response_through(self):
        assert chain_response((0.0, 1.0), (0.2, 0.7), 1) == 0.7
        assert chain_response((0.0, 1.0), (0.2, 0.7), 0) == 0.2


class TestFullMode:
    def test_basic(self, trial_scenario):
        obs = derive_observables(trial_scenario, AnalysisMode.FULL)
        assert obs.p_r1_given_e1 == 0.3
        assert obs.p_r1_given_e0 == 0.12
        assert obs.risk_ratio == 2.5
        assert obs.stratum_mediator_summary is None
        assert obs.stratum_weights == (1.0,)
        assert obs.stratum_response == ((0.12, 0.3),)

    def test_mediator_quad_and_chain(self, mediation_scenario):
        obs = derive_observables(mediation_scenario, AnalysisMode.FULL)
        # (P(M=1|E=0), P(M=1|E=1), P(R=1|M=0), P(R=1|M=1)) as given, not complemented
        assert obs.stratum_mediator_summary == ((0.975, 0.75, 0.9, 0.1),)
        assert obs.p_r1_given_e1 == pytest.approx(0.3, abs=APPROX)
        assert obs.p_r1_given_e0 == pytest.approx(0.12, abs=APPROX)
        assert any("chain marginal" in note for note in obs.notes)

    def test_covariate_weights_are_posterior_given_exposure(self, crossover_scenario):
        obs = derive_observables(crossover_scenario, AnalysisMode.FULL)
        # P(S=0|E=1) = 0.8*0.5 / (0.8*0.5 + 0.2*0.5) = 0.8
        assert obs.stratum_weights == pytest.approx((0.8, 0.2), abs=APPROX)
        assert obs.stratum_response[0] == (0.2, 0.8)
        assert obs.stratum_response[1] == (0.8, 0.2)
        assert obs.p_r1_given_e1 == pytest.approx(0.68, abs=APPROX)
        # P(S=0|E=0) = 0.2*0.5/0.5 = 0.2, so 0.2*0.2 + 0.8*0.8 = 0.68 again
        assert obs.p_r1_given_e0 == pytest.approx(0.68, abs=APPROX)

    def test_mediator_covariate_stratum_summaries(self, confounded_scenario):
        obs = derive_observables(confounded_scenario, AnalysisMode.FULL)
        assert obs.stratum_weights == pytest.approx((0.5, 0.5), abs=APPROX)
        assert obs.stratum_mediator_summary[0] == pytest.approx((0.1, 0.3, 0.8, 0.7), abs=APPROX)
        assert obs.stratum_mediator_summary[1] == pytest.approx((0.8, 0.8, 0.9, 0.3), abs=APPROX)
        assert obs.stratum_response[0] == pytest.approx((0.79, 0.77), abs=APPROX)
        assert obs.stratum_response[1] == pytest.approx((0.42, 0.42), abs=APPROX)


class TestCollapses:
    def test_crossover_collapse_hides_the_effect(self, crossover_scenario):
        obs = derive_observables(crossover_scenario, AnalysisMode.IGNORE_COVARIATE)
        assert obs.p_r1_given_e1 == pytest.approx(0.68, abs=APPROX)
        assert obs.p_r1_given_e0 == pytest.approx(0.68, abs=APPROX)
        assert obs.risk_ratio == pytest.approx(1.0, abs=APPROX)

    def test_rare_unexposure_collapses_exactly(self):
        # P(E=0) = 8e-10 summed from its joint terms: only stratum 1 is ever
        # unexposed, so its weight given E=0 is 1 and P(R=1|E=0) is its row
        sc = Scenario(
            Structure.COVARIATE,
            response=((0.0, 0.0), (1.0, 1.0)),
            exposure=(1.0, 0.999999999),
            covariate_prior=(0.2, 0.8),
        )
        obs = derive_observables(sc, AnalysisMode.IGNORE_COVARIATE)
        assert obs.p_r1_given_e0 == 1.0
        assert pc_bounds(obs)[:2] == (0.0, 0.0)
        assert derive_observables(sc).p_r1_given_e1 == pytest.approx(0.8 * 0.999999999 / 0.9999999992, abs=APPROX)

    def test_unexposed_weights_divide_their_own_sum(self):
        # P(E=1) is near 1, so 1 - P(E=1) would cancel; the exact lower bound is 0.69705110681132 (Fraction)
        sc = Scenario(
            Structure.COVARIATE,
            response=((0.1729207636944815, 0.5707918648403247), (0.6827188153526768, 0.17575923002317906)),
            exposure=(0.8979318232808503, 0.0),
            covariate_prior=(0.999999999, 1e-300),
        )
        lower = pc_bounds(derive_observables(sc, AnalysisMode.IGNORE_COVARIATE)).lower
        assert lower == pytest.approx(0.69705110681132, abs=APPROX)

    def test_collapsed_mediator_quad(self, confounded_scenario):
        obs = derive_observables(confounded_scenario, AnalysisMode.IGNORE_COVARIATE)
        # Bayes-weighted collapse of the stratified tables, exact rationals:
        # P(M=1|E=0), P(M=1|E=1), P(R=1|M=0), P(R=1|M=1)
        assert obs.stratum_mediator_summary[0] == pytest.approx(
            (
                float(Fraction(649, 820)),
                float(Fraction(11, 20)),
                float(Fraction(61, 70)),
                float(Fraction(589, 1870)),
            ),
            abs=APPROX,
        )

    def test_markov_marginals_differ_from_joint_law_and_both_are_exposed(
        self, confounded_scenario
    ):
        obs = derive_observables(confounded_scenario, AnalysisMode.IGNORE_COVARIATE)
        assert obs.p_r1_given_e1 == pytest.approx(0.5653781512605042, abs=APPROX)
        assert obs.p_r1_given_e0 == pytest.approx(0.43101455216232837, abs=APPROX)
        assert obs.notes[-1] == (
            "chain-reconstructed marginals (consumed by the formulas) differ from the joint law: "
            "P(R=1|E=1) 0.565378151261 vs 0.595, P(R=1|E=0) 0.431014552162 vs 0.424512195122"
        )

    def test_no_marginal_annotation_when_chain_matches(self, mediation_scenario):
        obs = derive_observables(mediation_scenario, AnalysisMode.FULL)
        assert not any("differ" in note for note in obs.notes)

    def test_ignore_mediator_keeps_strata(self, confounded_scenario):
        obs = derive_observables(confounded_scenario, AnalysisMode.IGNORE_MEDIATOR)
        assert obs.stratum_mediator_summary is None
        assert obs.stratum_response[0] == pytest.approx((0.79, 0.77), abs=APPROX)
        assert obs.stratum_response[1] == pytest.approx((0.42, 0.42), abs=APPROX)

    def test_ignore_both_uses_true_marginals(self, confounded_scenario):
        obs = derive_observables(confounded_scenario, AnalysisMode.IGNORE_BOTH)
        assert obs.p_r1_given_e1 == pytest.approx(0.595, abs=APPROX)
        assert obs.p_r1_given_e0 == pytest.approx(0.4245121951219512, abs=APPROX)


class TestReduceScenario:
    def test_full_is_identity(self, confounded_scenario):
        assert reduce_scenario(confounded_scenario, AnalysisMode.FULL) == confounded_scenario

    def test_ignore_both_yields_basic(self, confounded_scenario):
        red = reduce_scenario(confounded_scenario, AnalysisMode.IGNORE_BOTH)
        assert red.structure is Structure.BASIC
        assert red.response[0] == pytest.approx((0.4245121951219512, 0.595), abs=APPROX)

    def test_ignore_mediator_yields_covariate_chain_rows(self, confounded_scenario):
        red = reduce_scenario(confounded_scenario, AnalysisMode.IGNORE_MEDIATOR)
        assert red.structure is Structure.COVARIATE
        assert red.covariate_prior == confounded_scenario.covariate_prior
        assert red.exposure == confounded_scenario.exposure
        assert red.response[0] == pytest.approx((0.79, 0.77), abs=APPROX)
        assert red.response[1] == pytest.approx((0.42, 0.42), abs=APPROX)

    def test_ignore_covariate_yields_mediator(self, confounded_scenario):
        red = reduce_scenario(confounded_scenario, AnalysisMode.IGNORE_COVARIATE)
        assert red.structure is Structure.MEDIATOR
        obs = derive_observables(confounded_scenario, AnalysisMode.IGNORE_COVARIATE)
        full = derive_observables(red, AnalysisMode.FULL)
        assert full.stratum_mediator_summary[0] == pytest.approx(
            obs.stratum_mediator_summary[0], abs=APPROX
        )

    def test_reduction_observables_match_direct_mode(self, confounded_scenario):
        for mode in (
            AnalysisMode.IGNORE_MEDIATOR,
            AnalysisMode.IGNORE_COVARIATE,
            AnalysisMode.IGNORE_BOTH,
        ):
            direct = derive_observables(confounded_scenario, mode)
            via_reduction = derive_observables(reduce_scenario(confounded_scenario, mode),
                                               AnalysisMode.FULL)
            assert via_reduction.p_r1_given_e1 == pytest.approx(
                direct.p_r1_given_e1, abs=APPROX
            )
            assert via_reduction.p_r1_given_e0 == pytest.approx(
                direct.p_r1_given_e0, abs=APPROX
            )


class TestModeApplicability:
    def test_basic_rejects_every_drop(self, trial_scenario):
        for mode in (
            AnalysisMode.IGNORE_MEDIATOR,
            AnalysisMode.IGNORE_COVARIATE,
            AnalysisMode.IGNORE_BOTH,
        ):
            with pytest.raises(InapplicableModeError):
                derive_observables(trial_scenario, mode)

    def test_mediator_rejects_covariate_drops(self, mediation_scenario):
        with pytest.raises(InapplicableModeError):
            derive_observables(mediation_scenario, AnalysisMode.IGNORE_COVARIATE)
        with pytest.raises(InapplicableModeError):
            derive_observables(mediation_scenario, AnalysisMode.IGNORE_BOTH)

    def test_covariate_rejects_mediator_drops(self, crossover_scenario):
        with pytest.raises(InapplicableModeError):
            derive_observables(crossover_scenario, AnalysisMode.IGNORE_MEDIATOR)

    # every refusal, word for word; a mode dropping both is refused for M first
    REFUSALS = {
        ("basic", "ignore-mediator"): "mode ignore-mediator drops M, but structure basic has no mediator",
        ("basic", "ignore-covariate"): "mode ignore-covariate drops S, but structure basic has no covariate",
        ("basic", "ignore-both"): "mode ignore-both drops M, but structure basic has no mediator",
        ("mediator", "ignore-covariate"): "mode ignore-covariate drops S, but structure mediator has no covariate",
        ("mediator", "ignore-both"): "mode ignore-both drops S, but structure mediator has no covariate",
        ("covariate", "ignore-mediator"): "mode ignore-mediator drops M, but structure covariate has no mediator",
        ("covariate", "ignore-both"): "mode ignore-both drops M, but structure covariate has no mediator",
    }

    @pytest.mark.parametrize("mode", list(AnalysisMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("structure", list(Structure), ids=lambda s: s.value)
    def test_reduce_refuses_exactly_what_applicable_modes_omits(self, structure, mode):
        scenario = random_scenario(random.Random(structure.value), structure)
        refusal = self.REFUSALS.get((structure.value, mode.value))
        assert (mode in applicable_modes(structure)) is (refusal is None)
        if refusal is None:
            assert reduce_scenario(scenario, mode).structure in Structure
        else:
            with pytest.raises(InapplicableModeError) as caught:
                reduce_scenario(scenario, mode)
            assert str(caught.value) == refusal


class TestUndefinedConditionals:
    def test_all_mass_on_exposed_breaks_covariate_collapse(self):
        sc = Scenario(
            Structure.COVARIATE,
            response=((0.2, 0.8), (0.8, 0.2)),
            exposure=(1.0, 1.0),
            covariate_prior=(0.5, 0.5),
        )
        with pytest.raises(UndefinedConditionalError):
            derive_observables(sc, AnalysisMode.IGNORE_COVARIATE)

    def test_never_observed_mediator_level_breaks_collapse(self):
        sc = Scenario(
            Structure.MEDIATOR_COVARIATE,
            response=((0.8, 0.7), (0.9, 0.3)),
            mediator=((1.0, 1.0), (1.0, 1.0)),
            exposure=(0.9, 0.1),
            covariate_prior=(0.1, 0.9),
        )
        with pytest.raises(UndefinedConditionalError):
            derive_observables(sc, AnalysisMode.IGNORE_COVARIATE)

    def test_subnormal_mediator_level_breaks_collapse(self):
        # P(S=s) P(M=1|S=s) underflows, so P(S=s|M=1) would be rounding noise
        sc = Scenario(
            Structure.MEDIATOR_COVARIATE,
            response=((0.8, 0.7), (0.9, 0.3)),
            mediator=((1e-320, 1e-320), (1e-320, 1e-320)),
            exposure=(0.9, 0.1),
            covariate_prior=(0.1, 0.9),
        )
        with pytest.raises(UndefinedConditionalError, match=r"P\(M=1\) = .* is subnormal"):
            derive_observables(sc, AnalysisMode.IGNORE_COVARIATE)

    def test_unavailable_unexposed_marginal_states_p_e0(self):
        notes = {}
        for tail in (0.0, 5e-324):
            sc = Scenario(
                Structure.COVARIATE,
                response=((0.2, 0.6), (0.4, 0.3)),
                exposure=(1.0, 0.0),
                covariate_prior=(1.0, tail),
            )
            obs = derive_observables(sc)
            assert obs.p_r1_given_e0 is None
            notes[tail] = obs.notes
        assert notes[0.0] == ("P(E=0) = 0: marginal P(R=1|E=0) unavailable",)
        assert notes[5e-324] == ("P(E=0) = 5e-324 is subnormal: marginal P(R=1|E=0) unavailable",)

    def test_full_mode_tolerates_degenerate_exposure(self, crossover_scenario):
        # Full-mode covariate bounds condition on E=1 only; P(E=0)=0 within a
        # stratum is fine as long as P(E=1) overall is positive.
        sc = Scenario(
            Structure.COVARIATE,
            response=((0.2, 0.8), (0.8, 0.2)),
            exposure=(1.0, 0.5),
            covariate_prior=(0.5, 0.5),
        )
        obs = derive_observables(sc, AnalysisMode.FULL)
        assert obs.stratum_weights[0] > obs.stratum_weights[1]


class TestRiskRatio:
    def test_infinite_when_unexposed_risk_is_zero(self):
        sc = Scenario(Structure.BASIC, response=((0.0, 0.3),))
        obs = derive_observables(sc, AnalysisMode.FULL)
        assert obs.risk_ratio == float("inf")
        assert any("infinite" in note or "0" in note for note in obs.notes)

    def test_undefined_when_both_risks_are_zero(self):
        sc = Scenario(Structure.BASIC, response=((0.0, 0.0),))
        obs = derive_observables(sc, AnalysisMode.FULL)
        assert obs.risk_ratio is None
