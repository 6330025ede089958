"""Scenario construction, validation, and JSON round trips."""

import contextlib
import copy
import io
import json
import math
import random
from unittest import mock

import pytest

from causabound import (
    AnalysisMode,
    Scenario,
    ScenarioFormatError,
    Structure,
    random_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from causabound.cli import main
from causabound.scenario import _canonical_conditions, _parse_condition, condition_key, load_scenario
from conftest import DATA


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

    def test_tables(self):
        # (field, variable given P(.=1) of, variable conditioned on besides S)
        assert Structure.BASIC.tables == Structure.COVARIATE.tables == (("response", "R", "E"),)
        assert Structure.MEDIATOR.tables == Structure.MEDIATOR_COVARIATE.tables == (
            ("mediator", "M", "E"),
            ("response", "R", "M"),
        )

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

    @pytest.mark.parametrize(
        "position, value, expected",
        [
            ("covariate_prior", True, ("covariate_prior[1]: expected a number, found True",)),
            ("covariate_prior", "0.5", ("covariate_prior[1]: expected a number, found '0.5'",)),
            ("covariate_prior", None, ("covariate_prior[1]: expected a number, found None",)),
            ("covariate_prior", float("nan"), ("covariate_prior[1]: value nan outside [0, 1]",)),
            (
                "covariate_prior",
                float("inf"),
                ("covariate_prior[1]: value inf outside [0, 1]", "covariate_prior: entries sum to inf, not 1"),
            ),
            (
                "covariate_prior",
                1.5,
                ("covariate_prior[1]: value 1.5 outside [0, 1]", "covariate_prior: entries sum to 1.75, not 1"),
            ),
            (
                "covariate_prior",
                -1e-8,
                (
                    "covariate_prior[1]: value -1e-08 outside [0, 1]",
                    "covariate_prior: entries sum to 0.24999999, not 1",
                ),
            ),
            (
                "covariate_prior",
                1 + 2e-9,
                (
                    "covariate_prior[1]: value 1.000000002 outside [0, 1]",
                    "covariate_prior: entries sum to 1.250000002, not 1",
                ),
            ),
            ("exposure", True, ("exposure[S=1]: expected a number, found True",)),
            ("exposure", "0.5", ("exposure[S=1]: expected a number, found '0.5'",)),
            ("exposure", None, ("exposure[S=1]: expected a number, found None",)),
            ("exposure", float("nan"), ("exposure[S=1]: value nan outside [0, 1]",)),
            ("exposure", float("inf"), ("exposure[S=1]: value inf outside [0, 1]",)),
            ("exposure", 1.5, ("exposure[S=1]: value 1.5 outside [0, 1]",)),
            ("exposure", -1e-8, ("exposure[S=1]: value -1e-08 outside [0, 1]",)),
            ("exposure", 1 + 2e-9, ("exposure[S=1]: value 1.000000002 outside [0, 1]",)),
            ("mediator", True, ("mediator[E=0,S=1]: expected a number, found True",)),
            ("mediator", "0.5", ("mediator[E=0,S=1]: expected a number, found '0.5'",)),
            ("mediator", None, ("mediator[E=0,S=1]: expected a number, found None",)),
            ("mediator", float("nan"), ("mediator[E=0,S=1]: value nan outside [0, 1]",)),
            ("mediator", float("inf"), ("mediator[E=0,S=1]: value inf outside [0, 1]",)),
            ("mediator", 1.5, ("mediator[E=0,S=1]: value 1.5 outside [0, 1]",)),
            ("mediator", -1e-8, ("mediator[E=0,S=1]: value -1e-08 outside [0, 1]",)),
            ("mediator", 1 + 2e-9, ("mediator[E=0,S=1]: value 1.000000002 outside [0, 1]",)),
            ("response", True, ("response[M=1,S=0]: expected a number, found True",)),
            ("response", "0.5", ("response[M=1,S=0]: expected a number, found '0.5'",)),
            ("response", None, ("response[M=1,S=0]: expected a number, found None",)),
            ("response", float("nan"), ("response[M=1,S=0]: value nan outside [0, 1]",)),
            ("response", float("inf"), ("response[M=1,S=0]: value inf outside [0, 1]",)),
            ("response", 1.5, ("response[M=1,S=0]: value 1.5 outside [0, 1]",)),
            ("response", -1e-8, ("response[M=1,S=0]: value -1e-08 outside [0, 1]",)),
            ("response", 1 + 2e-9, ("response[M=1,S=0]: value 1.000000002 outside [0, 1]",)),
        ],
    )
    def test_bad_entry_message_names_its_position(self, position, value, expected):
        tables = {
            "covariate_prior": [0.25, 0.75],
            "exposure": [0.4, 0.6],
            "mediator": [[0.1, 0.3], [0.8, 0.8]],
            "response": [[0.8, 0.7], [0.9, 0.2]],
        }
        # covariate_prior[1], exposure[S=1], mediator[E=0,S=1], response[M=1,S=0]
        if position in ("covariate_prior", "exposure"):
            tables[position][1] = value
        elif position == "mediator":
            tables[position][1][0] = value
        else:
            tables[position][0][1] = value
        bad = Scenario(
            Structure.MEDIATOR_COVARIATE,
            response=tuple(map(tuple, tables["response"])),
            mediator=tuple(map(tuple, tables["mediator"])),
            exposure=tuple(tables["exposure"]),
            covariate_prior=tuple(tables["covariate_prior"]),
        )
        assert validate_scenario(bad) == expected

    def test_tolerance_accepts_tiny_overshoot(self):
        sc = Scenario(Structure.BASIC, response=((1.0 + 5e-10, 0.12),))
        assert validate_scenario(sc) == ()

    @pytest.mark.parametrize(
        "value, stored",
        [
            (1 + 5e-10, 1.0),
            (-5e-10, 0.0),
            (1 + 2e-9, 1 + 2e-9),
            (-0.0, -0.0),
            (float("nan"), float("nan")),
            (True, True),
            ("0.5", "0.5"),
        ],
    )
    def test_only_a_tolerance_overshoot_is_stored_as_the_nearest_end(self, value, stored):
        tables = dict(
            response=((0.8, value), (0.9, 0.2)),
            mediator=((0.1, 0.3), (value, 0.8)),
            exposure=(0.4, value),
            covariate_prior=(0.25, value),
        )
        built = Scenario(Structure.MEDIATOR_COVARIATE, **tables)
        base = Scenario(
            Structure.MEDIATOR_COVARIATE,
            response=((0.8, 0.7), (0.9, 0.2)),
            mediator=((0.1, 0.3), (0.8, 0.8)),
            exposure=(0.4, 0.6),
            covariate_prior=(0.25, 0.75),
        )
        for sc in (built, base._replace(**tables)):
            entries = (sc.response[0][1], sc.mediator[1][0], sc.exposure[1], sc.covariate_prior[1])
            # repr tells -0.0 from 0.0 and True from 1, and reads nan as nan
            assert [repr(e) for e in entries] == [repr(stored)] * 4

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
        # the check reads the stored prior: -5e-10 is stored as 0.0, so the sum is 1 + 1.4e-9
        over = Scenario(
            Structure.COVARIATE,
            response=((0.2, 0.8), (0.8, 0.2), (0.5, 0.5)),
            exposure=(0.8, 0.2, 0.5),
            covariate_prior=(0.5000000014, 0.5, -5e-10),
        )
        assert validate_scenario(over) == ("covariate_prior: entries sum to 1.0000000014000001, not 1",)
        # and the other way: stored as (0.999999999, 0.0), the prior sums to 1 - 1e-9
        under = ok._replace(covariate_prior=(0.999999999, -5e-10))
        assert validate_scenario(under) == ()

    def test_missing_mediator_table(self):
        sc = Scenario(Structure.MEDIATOR, response=((0.9, 0.1),))
        assert any("mediator" in v for v in validate_scenario(sc))
        # a K = 1 table is one stratum of pairs, not the bare pair
        bare = Scenario(Structure.BASIC, response=(0.12, 0.3))
        assert validate_scenario(bare) == ("response: expected one pair per stratum",)

    @pytest.mark.parametrize(
        "scenario, message",
        [
            (
                Scenario("basic", ((0.1, 0.3),)),
                "structure: expected one of ['basic', 'mediator', 'covariate', 'mediator_covariate'], found 'basic'",
            ),
            (
                Scenario(Structure.COVARIATE, ((0.1, 0.3), (0.2, 0.4)), exposure=(0.5, 0.5)),
                "covariate_prior: expected a tuple of at least 2 stratum weights",
            ),
            (
                Scenario(Structure.COVARIATE, ((0.1, 0.3),), exposure=(0.5,), covariate_prior=(1.0,)),
                "covariate_prior: expected a tuple of at least 2 stratum weights",
            ),
            (
                Scenario(Structure.BASIC, ((0.1, 0.3),), covariate_prior=(0.5, 0.5)),
                "covariate_prior: not defined for structure basic",
            ),
            (
                Scenario(Structure.COVARIATE, ((0.1, 0.3), (0.2, 0.4)), exposure=(0.5,), covariate_prior=(0.5, 0.5)),
                "exposure: expected one P(E=1|S=s) entry per stratum",
            ),
            (
                Scenario(
                    Structure.COVARIATE,
                    ((0.1, 0.3), (0.2, 0.4)),
                    mediator=((0.2, 0.8), (0.2, 0.8)),
                    exposure=(0.5, 0.5),
                    covariate_prior=(0.5, 0.5),
                ),
                "mediator: not defined for structure covariate",
            ),
            (
                Scenario(Structure.COVARIATE, ((0.1, 0.3), (0.2,)), exposure=(0.5, 0.5), covariate_prior=(0.5, 0.5)),
                "response[S=1]: expected a pair indexed by E=0,1",
            ),
        ],
        ids=[
            "structure-not-a-Structure",
            "prior-missing",
            "prior-of-one-entry",
            "prior-on-basic",
            "exposure-of-wrong-length",
            "mediator-on-covariate",
            "response-entry-not-a-pair",
        ],
    )
    def test_shape_only_a_library_caller_can_build(self, scenario, message):
        # the JSON and CSV loaders refuse these shapes before a Scenario exists
        assert validate_scenario(scenario) == (message,)

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


def _stratified_doc(strata=3):
    return {
        "structure": "mediator_covariate",
        "covariate_prior": [1 / strata] * strata,
        "exposure": {f"S={s}": 0.2 + 0.1 * s for s in range(strata)},
        "mediator": {f"E={e},S={s}": 0.1 + 0.3 * e + 0.05 * s for e in (0, 1) for s in range(strata)},
        "response": {f"M={m},S={s}": 0.3 + 0.2 * m + 0.1 * s for m in (0, 1) for s in range(strata)},
    }


def _respelled(doc, spellings):
    """`doc` with the i-th condition key of each table respelled by `spellings[i % len(spellings)]`."""
    out = dict(doc)
    for table in ("exposure", "mediator", "response"):
        out[table] = {spellings[i % len(spellings)](key): value for i, (key, value) in enumerate(doc[table].items())}
    return out


def _reordered(key):
    return ",".join(reversed(key.split(",")))


def _spaced(key):
    return " , ".join(" " + part.replace("=", " = ") + " " for part in key.split(","))


def _zero_padded(key):
    return ",".join(part.replace("=", "=00") for part in key.split(","))


def _distinct_entries(structure, strata):
    """A valid scenario whose table entries all differ, so a key that names the wrong entry shows."""
    entries = iter(i / 64 for i in range(1, 64))

    def pairs():
        return tuple((next(entries), next(entries)) for _ in range(strata))

    return Scenario(
        structure,
        response=pairs(),
        mediator=pairs() if structure.has_mediator else None,
        exposure=tuple(next(entries) for _ in range(strata)),
        covariate_prior=(1 / strata,) * strata if structure.has_covariate else None,
    )


# K = 1 is the only stratum count without S, and S needs K >= 2
_EVERY_SHAPE = pytest.mark.parametrize(
    "structure, strata",
    [(Structure.BASIC, 1), (Structure.MEDIATOR, 1)]
    + [(st, k) for st in (Structure.COVARIATE, Structure.MEDIATOR_COVARIATE) for k in (2, 3)],
    ids=lambda x: x.value if isinstance(x, Structure) else f"K={x}",
)


class TestOneKeySpelling:
    @_EVERY_SHAPE
    def test_writer_reader_and_validator_agree_on_every_key(self, structure, strata):
        scenario = _distinct_entries(structure, strata)
        doc = scenario_to_dict(scenario)
        assert validate_scenario(scenario) == ()
        assert scenario_from_dict(doc) == scenario
        s = ("S",) if structure.has_covariate else ()
        # each condition-keyed table with the variables its keys name; without S the exposure is a bare number
        keyed = [(name, (cond_var, *s)) for name, _, cond_var in structure.tables]
        keyed += [("exposure", s)] if s else []
        for name, variables in keyed:
            for key in doc[name]:
                changed = copy.deepcopy(doc)
                changed[name][key] = 1.5
                parsed = scenario_from_dict(changed)
                var_levels = tuple((var, strata if var == "S" else 2) for var in variables)
                assignment = dict(zip(variables, _parse_condition(key, var_levels, name)))
                entry = getattr(parsed, name)[assignment.get("S", 0)]
                if name != "exposure":
                    entry = entry[assignment[variables[0]]]
                assert entry == 1.5, key
                assert validate_scenario(parsed) == (f"{name}[{key}]: value 1.5 outside [0, 1]",)
        if not s:
            parsed = scenario_from_dict({**doc, "exposure": 1.5})
            assert validate_scenario(parsed) == ("exposure: value 1.5 outside [0, 1]",)

    @_EVERY_SHAPE
    def test_stratum_conditions_are_the_s_part_of_every_written_key(self, structure, strata):
        doc = scenario_to_dict(_distinct_entries(structure, strata))
        conditions = [condition_key(condition) for condition in structure.strata(strata)]
        assert len(conditions) == strata
        for name, _, _ in structure.tables:
            s_parts = [",".join(part for part in key.split(",") if part.startswith("S=")) for key in doc[name]]
            # a pair table lists E=0 (or M=0) in every stratum, then E=1
            assert s_parts == conditions * 2, name
        if structure.has_covariate:
            assert list(doc["exposure"]) == conditions


class TestConditionSpellings:
    @pytest.mark.parametrize(
        "spellings",
        [(_reordered,), (_spaced,), (_zero_padded,), (str, _reordered, _spaced, _zero_padded)],
        ids=["reordered", "spaced", "zero-padded", "mixed"],
    )
    def test_every_spelling_gives_the_canonical_scenario(self, spellings):
        doc = _stratified_doc()
        respelled = _respelled(doc, spellings)
        assert respelled["response"] != doc["response"]
        assert scenario_from_dict(respelled) == scenario_from_dict(doc)

    @pytest.mark.parametrize("first, second", [("E=1,S=2", "S=2, E=1"), ("S=2, E=1", "E=1,S=2")])
    def test_duplicate_across_spellings_is_rejected(self, first, second):
        doc = _stratified_doc()
        others = {key: value for key, value in doc["mediator"].items() if key != "E=1,S=2"}
        doc["mediator"] = {first: 0.5, **others, second: 0.5}
        with pytest.raises(ScenarioFormatError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == f"mediator: duplicate condition {second!r}"

    @pytest.mark.parametrize("key", ["E=0,S=3", "S=3,E=0", "E=0,S=-1", "E=2,S=0"])
    def test_level_out_of_range_is_rejected(self, key):
        doc = _stratified_doc()
        doc["mediator"][key] = 0.5
        var = "E" if "E=2" in key else "S"
        with pytest.raises(ScenarioFormatError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == f"mediator: condition {key!r} has {var} out of range"

    @pytest.mark.parametrize(
        "key, var", [("S=3,E=0", "S"), ("E=2,S=0", "E"), ("S=5, E=2", "E")], ids=["S", "E", "E-before-S"]
    )
    def test_the_parser_itself_refuses_a_level_out_of_range(self, key, var):
        var_levels = (("E", 2), ("S", 3))
        assert _parse_condition(" S = 02 ,E=1", var_levels, "mediator") == (1, 2)
        with pytest.raises(ScenarioFormatError) as err:
            _parse_condition(key, var_levels, "mediator")
        assert str(err.value) == f"mediator: condition {key!r} has {var} out of range"

    @pytest.mark.parametrize(
        "level", ["+0", "-0", "\u0660", "0_0"], ids=["plus", "minus-zero", "arabic-indic", "underscore"]
    )
    @pytest.mark.parametrize("var", ["E", "S"])
    def test_level_must_be_ascii_decimal_digits(self, var, level):
        # each key would otherwise name E=0,S=0, which is what int() makes of it
        key = "E=0,S=0".replace(f"{var}=0", f"{var}={level}")
        doc = _stratified_doc()
        doc["mediator"] = {key if k == "E=0,S=0" else k: v for k, v in doc["mediator"].items()}
        with pytest.raises(ScenarioFormatError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == f"mediator: bad condition key {key!r}"

    def test_canonical_keys_never_reach_the_general_parser(self, tmp_path):
        docs = [json.loads(path.read_text()) for path in sorted(DATA.glob("*.json"))]
        strata = 64
        rows = ["E,M,R,S,count"]
        for e in (0, 1):
            for m in (0, 1):
                for r in (0, 1):
                    rows += [f"{e},{m},{r},{s},{5 + (7 * e + 3 * m + 11 * r + s) % 50}" for s in range(strata)]
        counts = tmp_path / "counts.csv"
        counts.write_text("\n".join(rows) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["estimate", str(counts)]) == 0
        docs.append(json.loads(out.getvalue()))
        assert len(docs[-1]["covariate_prior"]) == strata
        parse = AssertionError("a canonical condition key went through _parse_condition")
        with mock.patch("causabound.scenario._parse_condition", side_effect=parse):
            loaded = [scenario_from_dict(doc) for doc in docs]
        assert [scenario_to_dict(sc) for sc in loaded] == docs


class TestFormatErrors:
    def test_unknown_structure(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_dict({"structure": "fancy", "response": {"E=0": 0.1, "E=1": 0.2}})

    @pytest.mark.parametrize("structure", list(Structure))
    def test_unknown_top_level_field(self, structure):
        # the echo writes exactly the structure's fields, and every other name is refused
        scenario = random_scenario(random.Random(0), structure)
        if not structure.has_covariate:
            scenario = scenario._replace(exposure=(0.5,))  # the optional bare exposure, written when given
        doc = scenario_to_dict(scenario)
        assert doc.keys() == structure.fields
        for name in sorted({"extra", *Structure.MEDIATOR_COVARIATE.fields} - structure.fields):
            with pytest.raises(ScenarioFormatError) as info:
                scenario_from_dict({**doc, name: 1})
            assert str(info.value) == f"unknown fields for {structure.value}: [{name!r}]"

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

    def test_integer_past_the_float_range_reads_as_infinity(self):
        # json reads 1e400 as inf; an integer of 401 digits reads the same way
        huge = 10**400
        basic = scenario_from_dict({"structure": "basic", "exposure": -huge, "response": {"E=0": huge, "E=1": 0.3}})
        assert basic.exposure == (-math.inf,)
        assert basic.response == ((math.inf, 0.3),)
        assert validate_scenario(basic) == (
            "exposure: value -inf outside [0, 1]",
            "response[E=0]: value inf outside [0, 1]",
        )
        covariate = scenario_from_dict(
            {
                "structure": "covariate",
                "covariate_prior": [huge, 0.5],
                "exposure": {"S=0": 0.5, "S=1": 0.5},
                "response": {"E=0,S=0": 0.1, "E=1,S=0": 0.3, "E=0,S=1": 0.1, "E=1,S=1": 0.3},
            }
        )
        assert covariate.covariate_prior == (math.inf, 0.5)
        assert validate_scenario(covariate)[0] == "covariate_prior[0]: value inf outside [0, 1]"

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"structure": "fancy", "response": {}})

    def test_wrong_length_table_is_refused_without_the_keys_of_its_shape(self):
        # 200,000 strata give the response table 400,000 keys, which a 2-entry table must not cost
        strata = 200_000
        doc = {
            "structure": "covariate",
            "covariate_prior": [1 / strata] * strata,
            "exposure": {"S=0": 0.5, "S=1": 0.5},
            "response": {"E=0,S=0": 0.1, "E=1,S=0": 0.3},
        }
        misses = _canonical_conditions.cache_info().misses
        with pytest.raises(ScenarioFormatError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == "response: expected 400000 entries, found 2"
        assert _canonical_conditions.cache_info().misses == misses

    @pytest.mark.parametrize(
        "response, message",
        [
            ({"E=0,S=0": 0.1, "E=2,S=0": 0.3}, "response: condition 'E=2,S=0' has E out of range"),
            ({"E=0,S=0": 0.1, "S=0,E=0": 0.3}, "response: duplicate condition 'S=0,E=0'"),
            ({"E=0,S=0": 0.1, "E=1,S=0": "0.3"}, "response: value for 'E=1,S=0' is not a number"),
            ({"E=0,S=0": 0.1, "E=1,S=0": 0.3}, "response: expected 6 entries, found 2"),
            (
                {**{f"E={e},S={s}": 0.5 for e in (0, 1) for s in range(3)}, "E=0, S=1": 0.5},
                "response: duplicate condition 'E=0, S=1'",
            ),
        ],
        ids=["out-of-range", "duplicate", "not-a-number", "short", "long"],
    )
    def test_wrong_length_table_reports_an_entry_fault_before_its_length(self, response, message):
        doc = {"structure": "covariate", "covariate_prior": [0.5, 0.25, 0.25], "exposure": {}, "response": response}
        with pytest.raises(ScenarioFormatError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == message

    def test_first_name_given_twice_is_named(self, tmp_path):
        path = tmp_path / "repeats.json"
        path.write_text('{"structure": "basic", "response": {"E=0": 0.1, "E=1": 0.3, "E=1": 0.4, "E=0": 0.2}}')
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(str(path))
        assert str(err.value) == "not valid JSON: name 'E=1' repeated in one object"
