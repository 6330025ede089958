"""Scenario construction, validation, and JSON round trips."""

import json

import pytest

from causabound import (
    AnalysisMode,
    Scenario,
    ScenarioFormatError,
    Structure,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)


class TestStructure:
    def test_variable_flags(self):
        assert not Structure.BASIC.has_mediator
        assert not Structure.BASIC.has_covariate
        assert Structure.MEDIATOR.has_mediator
        assert not Structure.MEDIATOR.has_covariate
        assert not Structure.COVARIATE.has_mediator
        assert Structure.COVARIATE.has_covariate
        assert Structure.MEDIATOR_COVARIATE.has_mediator
        assert Structure.MEDIATOR_COVARIATE.has_covariate

    def test_variables(self):
        assert Structure.BASIC.variables == ("E", "R")
        assert Structure.MEDIATOR.variables == ("E", "M", "R")
        assert Structure.COVARIATE.variables == ("E", "R", "S")
        assert Structure.MEDIATOR_COVARIATE.variables == ("E", "M", "R", "S")

    def test_values_are_strings(self):
        assert Structure.BASIC.value == "basic"
        assert Structure.MEDIATOR_COVARIATE.value == "mediator_covariate"


class TestAnalysisMode:
    def test_drop_flags(self):
        assert not AnalysisMode.FULL.drops_mediator
        assert not AnalysisMode.FULL.drops_covariate
        assert AnalysisMode.IGNORE_MEDIATOR.drops_mediator
        assert AnalysisMode.IGNORE_COVARIATE.drops_covariate
        assert AnalysisMode.IGNORE_BOTH.drops_mediator
        assert AnalysisMode.IGNORE_BOTH.drops_covariate

    def test_cli_facing_values(self):
        assert AnalysisMode.IGNORE_MEDIATOR.value == "ignore-mediator"
        assert AnalysisMode.IGNORE_BOTH.value == "ignore-both"


class TestValidation:
    def test_fixtures_are_valid(
        self, trial_scenario, mediation_scenario, crossover_scenario, confounded_scenario
    ):
        for sc in (trial_scenario, mediation_scenario, crossover_scenario, confounded_scenario):
            assert validate_scenario(sc) == ()

    def test_out_of_range_probability_is_located(self):
        bad = Scenario(Structure.MEDIATOR, response=((0.9, 0.1),), mediator=((0.975, 1.3),))
        violations = validate_scenario(bad)
        assert len(violations) == 1
        assert "mediator[E=1]" in violations[0]
        assert "outside [0, 1]" in violations[0]

    def test_prior_must_sum_to_one(self):
        bad = Scenario(
            Structure.COVARIATE,
            response=((0.2, 0.8), (0.8, 0.2)),
            exposure=(0.8, 0.2),
            covariate_prior=(0.4, 0.4),
        )
        violations = validate_scenario(bad)
        assert any("covariate_prior" in v and "sum" in v for v in violations)

    def test_stratified_entry_label_names_both_conditions(self):
        bad = Scenario(
            Structure.MEDIATOR_COVARIATE,
            response=((0.8, 0.7), (0.9, -0.2)),
            mediator=((0.1, 0.3), (0.8, 0.8)),
            exposure=(0.9, 0.1),
            covariate_prior=(0.1, 0.9),
        )
        violations = validate_scenario(bad)
        assert any("response[M=1,S=1]" in v for v in violations)

    def test_tolerance_accepts_tiny_overshoot(self):
        sc = Scenario(Structure.BASIC, response=((1.0 + 5e-10, 0.12),))
        assert validate_scenario(sc) == ()

    def test_tolerance_rejects_larger_overshoot(self):
        sc = Scenario(Structure.BASIC, response=((1.0 + 2e-9, 0.12),))
        assert validate_scenario(sc) != ()

    def test_prior_sum_tolerance(self):
        ok = Scenario(
            Structure.COVARIATE,
            response=((0.2, 0.8), (0.8, 0.2)),
            exposure=(0.8, 0.2),
            covariate_prior=(0.5 + 4e-10, 0.5),
        )
        assert validate_scenario(ok) == ()

    def test_missing_mediator_table(self):
        sc = Scenario(Structure.MEDIATOR, response=((0.9, 0.1),))
        assert any("mediator" in v for v in validate_scenario(sc))
        # a K = 1 table is one stratum of pairs, not the bare pair
        bare = Scenario(Structure.BASIC, response=(0.12, 0.3))
        assert validate_scenario(bare) == ("response: expected one pair per stratum",)

    def test_values_are_never_renormalized(self):
        sc = Scenario(
            Structure.COVARIATE,
            response=((0.2, 0.8), (0.8, 0.2)),
            exposure=(0.8, 0.2),
            covariate_prior=(0.5 + 4e-10, 0.5),
        )
        assert sc.covariate_prior[0] == 0.5 + 4e-10


class TestJsonRoundTrip:
    def test_round_trip_all_fixtures(
        self, trial_scenario, mediation_scenario, crossover_scenario, confounded_scenario
    ):
        for sc in (trial_scenario, mediation_scenario, crossover_scenario, confounded_scenario):
            assert scenario_from_dict(scenario_to_dict(sc)) == sc

    def test_dict_form_is_json_serializable(self, confounded_scenario):
        text = json.dumps(scenario_to_dict(confounded_scenario))
        assert scenario_from_dict(json.loads(text)) == confounded_scenario

    def test_condition_key_order_is_free(self):
        a = scenario_from_dict(
            {
                "structure": "covariate",
                "covariate_prior": [0.5, 0.5],
                "exposure": {"S=0": 0.8, "S=1": 0.2},
                "response": {
                    "S=0,E=0": 0.2,
                    "S=1,E=0": 0.8,
                    "E=1,S=0": 0.8,
                    "E=1,S=1": 0.2,
                },
            }
        )
        b = scenario_from_dict(
            {
                "structure": "covariate",
                "covariate_prior": [0.5, 0.5],
                "exposure": {"S=0": 0.8, "S=1": 0.2},
                "response": {
                    "E=0,S=0": 0.2,
                    "E=0,S=1": 0.8,
                    "E=1,S=0": 0.8,
                    "E=1,S=1": 0.2,
                },
            }
        )
        assert a == b

    def test_marginal_exposure_round_trips_as_number(self, trial_scenario):
        d = scenario_to_dict(trial_scenario)
        assert d["exposure"] == 0.5
        assert scenario_from_dict(d).exposure == (0.5,)


class TestFormatErrors:
    def test_unknown_structure(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict({"structure": "fancy", "response": {"E=0": 0.1, "E=1": 0.2}})

    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict(
                {
                    "structure": "basic",
                    "response": {"E=0": 0.12, "E=1": 0.3},
                    "extra": 1,
                }
            )

    def test_missing_condition(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict({"structure": "basic", "response": {"E=1": 0.3}})

    def test_duplicate_condition(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict(
                {
                    "structure": "basic",
                    "response": {"E=0": 0.12, "E=0 ": 0.2, "E=1": 0.3},
                }
            )

    def test_foreign_condition_variable(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict(
                {
                    "structure": "basic",
                    "response": {"E=0": 0.12, "E=1": 0.3, "M=0": 0.5},
                }
            )

    def test_mediator_table_on_basic_structure(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict(
                {
                    "structure": "basic",
                    "response": {"E=0": 0.12, "E=1": 0.3},
                    "mediator": {"E=0": 0.5, "E=1": 0.5},
                }
            )

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"structure": "fancy", "response": {}})
