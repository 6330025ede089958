"""End-to-end command behavior, exit codes, and output determinism."""

import builtins
import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from causabound import (
    AnalysisMode,
    Method,
    Structure,
    applicable_modes,
    compute_intervals,
    derive_observables,
    oracle_bounds,
    pc_bounds,
    run_audit,
    scenario_from_dict,
    validate_scenario,
)
from causabound import demo as demo_module
from causabound.checks import TOLERANCE
from causabound.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_UNDEFINED,
    main,
)
from causabound.scenario import ordered_sum
from conftest import DATA

BUILTIN_SUM = builtins.sum

TRIAL_CSV = str(DATA / "basic_trial.csv")
MEDIATION_JSON = str(DATA / "complete_mediation.json")
CROSSOVER_JSON = str(DATA / "crossover_covariate.json")
CONFOUNDED_JSON = str(DATA / "mediated_confounding.json")
CONFOUNDED_CSV = str(DATA / "mediated_confounding_counts.csv")
OVERSHOOTING_MEDIATOR = {
    "structure": "mediator",
    "mediator": {"E=0": 0.2, "E=1": 0.8},
    "response": {"M=0": 0.2, "M=1": 0.5},
}
# valid within the tolerance; read as given, the ignore-* collapses would
# amplify the overshoot to P(R=1|E=1) = -3.6e-9
AMPLIFIED_OVERSHOOT = {
    "structure": "mediator_covariate",
    "covariate_prior": [0.08755332567574442, 0.9124466743242555],
    "exposure": {"S=0": 1.0000000005, "S=1": -5e-10},
    "mediator": {
        "E=0,S=0": 0.07997255578428242,
        "E=0,S=1": -5e-10,
        "E=1,S=0": 0.9941365893452827,
        "E=1,S=1": -5e-10,
    },
    "response": {
        "M=0,S=0": 0.0,
        "M=0,S=1": 0.699032297408949,
        "M=1,S=0": 1e-300,
        "M=1,S=1": -5e-10,
    },
}

# the ignore-covariate collapse sums strata whose float total depends on the summation order
SUM_SENSITIVE = {
    "structure": "mediator_covariate",
    "covariate_prior": [0.44959326653680887, 0.3541866577187577, 0.19622007574443345],
    "exposure": {"S=0": 0.5857741752753125, "S=1": 0.005233423263488746, "S=2": 0.8874659334068292},
    "mediator": {
        "E=0,S=0": 0.8451252943228947, "E=0,S=1": 0.19278101443176976, "E=0,S=2": 0.7066494917460955,
        "E=1,S=0": 0.621390360851157, "E=1,S=1": 0.19116018329188722, "E=1,S=2": 0.572218077208615,
    },
    "response": {
        "M=0,S=0": 0.4570632220905344, "M=0,S=1": 0.9499534060007091, "M=0,S=2": 0.5308298106333185,
        "M=1,S=0": 0.2698447151513391, "M=1,S=1": 0.6560992599004282, "M=1,S=2": 0.5010100389492427,
    },
}

# valid within the tolerance; unclamped, the closed form reads upper 0.49975 and
# the oracle 0.49999975, where the clamped tables give 0.49999975 to both
RESPONSE_OVERSHOOT = {
    "structure": "mediator",
    "mediator": {"E=0": 0.5, "E=1": 1e-6},
    "response": {"M=0": 1e-6, "M=1": 1.000000001},
}

SUBNORMAL_DENOMINATOR = {
    "structure": "mediator",
    "mediator": {"E=0": 0.6418946885374921, "E=1": 1e-300},
    "response": {"M=0": 5e-324, "M=1": 1e-300},
}

# P(S=s) P(E=1|S=s) underflows: P(E=1) = 5e-324, and the weights read (1, 0)
# instead of (0.79, 0.21)
SUBNORMAL_EXPOSURE = {
    "structure": "covariate",
    "covariate_prior": [0.7889419955057178, 0.21105800449428225],
    "exposure": {"S=0": 5e-324, "S=1": 5e-324},
    "response": {"E=0,S=0": 0.5, "E=0,S=1": 0.1, "E=1,S=0": 0.4, "E=1,S=1": 0.6},
}


# outside input a JSON or CSV parser rejects before any scenario exists
MALFORMED_INPUTS = {
    "not_utf8.json": b'{"structure": "basic", "response": {"E=0": 0.12, "E=1": 0.\xff}}',
    "not_utf8.csv": b"E,R,count\n0,0,\xff\n",
    "long_integer.json": b'{"structure": "basic", "response": {"E=0": ' + b"1" * 5000 + b', "E=1": 0.3}}',
    "deeply_nested.json": b"[" * 200_000 + b"]" * 200_000,
    "long_field.csv": b"E,R,count\n0,0," + b"1" * 140_000 + b"\n",
    "repeated_key.json": b'{"structure": "basic", "response": {"E=0": 0.9, "E=0": 0.12, "E=1": 0.3}}',
    # levels and counts are ASCII decimal digits, not whatever int() accepts
    "plus_sign_key.json": b'{"structure": "basic", "response": {"E=+0": 0.12, "E=1": 0.3}}',
    "minus_zero_key.json": b'{"structure": "basic", "response": {"E=-0": 0.12, "E=1": 0.3}}',
    "arabic_indic_key.json": '{"structure": "basic", "response": {"E=\u0660": 0.12, "E=1": 0.3}}'.encode(),
    "underscore_key.json": b'{"structure": "basic", "response": {"E=0_0": 0.12, "E=1": 0.3}}',
    "plus_sign_level.csv": b"E,R,count\n+0,0,88\n0,1,12\n1,0,70\n1,1,30\n",
    "underscore_count.csv": b"E,R,count\n0,0,1_000\n0,1,12\n1,0,70\n1,1,30\n",
    "arabic_indic_count.csv": "E,R,count\n0,0,\u0661\u0662\n0,1,12\n1,0,70\n1,1,30\n".encode(),
}

# exact ends, signed zero, subnormals, and overshoot inside the 1e-9 tolerance
EDGE_VALUES = (0.0, 1.0, -0.0, 1e-300, 5e-324, -5e-10, 1.0 + 5e-10, 1e-9, 1.0 - 1e-9)
edge_entries = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(min_value=0.0, max_value=1.0))


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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_counts_file(self, capsys):
        code, out, err = run(capsys, "bound", TRIAL_CSV)
        assert code == EXIT_OK
        doc = json.loads(out)
        entry = doc["intervals"][0]
        assert entry["lower"] == 0.6
        assert entry["upper"] == 1.0
        assert doc["input"]["scenario"]["structure"] == "basic"

    def test_method_both_lists_two_matching_entries(self, capsys):
        code, out, _ = run(capsys, "bound", MEDIATION_JSON, "--method", "both")
        assert code == EXIT_OK
        entries = json.loads(out)["intervals"]
        assert [e["method"] for e in entries] == ["closed", "oracle"]
        for e in entries:
            assert e["lower_display"] == "0.60"
            assert e["upper_display"] == "0.76"
        assert abs(entries[0]["lower"] - entries[1]["lower"]) <= 1e-9
        assert abs(entries[0]["upper"] - entries[1]["upper"]) <= 1e-9

    def test_mode_flag(self, capsys):
        code, out, _ = run(capsys, "bound", CROSSOVER_JSON, "--mode", "ignore-covariate")
        assert code == EXIT_OK
        entry = json.loads(out)["intervals"][0]
        assert entry["mode"] == "ignore-covariate"
        assert entry["lower_display"] == "0.00"
        assert entry["upper_display"] == "0.47"

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "bound", TRIAL_CSV, "--output", "csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("mode,method,lower,upper")
        assert lines[1].startswith("full,closed,0.6,1,")

    def test_deterministic_bytes(self, capsys):
        first = run(capsys, "bound", CONFOUNDED_JSON, "--method", "both")
        second = run(capsys, "bound", CONFOUNDED_JSON, "--method", "both")
        assert first == second

    def test_empty_counts_file(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("E,R,count\n")
        code, out, err = run(capsys, "bound", str(path))
        assert code == EXIT_INPUT_ERROR
        assert not out
        assert "causabound:" in err

    @pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
    def test_malformed_input_is_an_input_error(self, capsys, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(MALFORMED_INPUTS[name])
        code, out, err = run(capsys, "audit", str(path))
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("causabound: ") and err.count("\n") == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "bound", "no_such_file.json")
        assert code == EXIT_INPUT_ERROR
        assert err

    def test_unknown_extension(self, capsys, tmp_path):
        path = tmp_path / "input.txt"
        path.write_text("{}")
        code, _, err = run(capsys, "bound", str(path))
        assert code == EXIT_INPUT_ERROR
        assert err

    def test_validation_failure_lists_the_entry(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"structure": "basic", "response": {"E=0": 0.12, "E=1": 1.5}}
            )
        )
        code, _, err = run(capsys, "bound", str(path))
        assert code == EXIT_INPUT_ERROR
        assert "response[E=1]" in err

    def test_undefined_pc_exits_three(self, capsys, tmp_path):
        path = tmp_path / "undefined.json"
        path.write_text(
            json.dumps({"structure": "basic", "response": {"E=0": 0.12, "E=1": 0.0}})
        )
        code, _, err = run(capsys, "bound", str(path))
        assert code == EXIT_UNDEFINED
        assert "undefined" in err

    @pytest.mark.parametrize("method", ["oracle", "both"])
    def test_corner_overshoot_is_clamped_not_a_crash(self, capsys, tmp_path, method):
        # the oracle's raw corner maximum here is 1.0000000000000002
        path = tmp_path / "overshoot.json"
        path.write_text(json.dumps(OVERSHOOTING_MEDIATOR))
        code, out, err = run(capsys, "bound", str(path), "--method", method)
        assert code == EXIT_OK, err
        for entry in json.loads(out)["intervals"]:
            assert entry["upper"] == 1.0
            assert entry["lower_display"] == "0.41"
        code, out, err = run(capsys, "audit", str(path), "--method", "both")
        assert code == EXIT_OK, err
        assert all(e["upper"] == 1.0 for e in json.loads(out)["audit"]["entries"])

    @pytest.mark.parametrize(
        "source, table, entries",
        [
            ("crossover_covariate.json", "exposure", {"S=1": -5e-10}),
            ("complete_mediation.json", "mediator", {"E=0": -5e-10, "E=1": 1.0}),
            ("crossover_covariate.json", "exposure", {"S=1": 1.0000000005}),
        ],
    )
    def test_tolerance_overshoot_is_clamped_once(self, capsys, tmp_path, source, table, entries):
        doc = json.loads((DATA / source).read_text(encoding="utf-8"))
        doc[table].update(entries)
        path = tmp_path / "overshoot.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "bound", str(path), "--method", "both")
        assert code == EXIT_OK, err
        report = json.loads(out)
        for key, value in entries.items():
            assert report["input"]["scenario"][table][key] == min(1.0, max(0.0, value))
        closed, oracle = report["intervals"]
        assert abs(closed["lower"] - oracle["lower"]) <= TOLERANCE
        assert abs(closed["upper"] - oracle["upper"]) <= TOLERANCE

    def test_subnormal_denominator_is_undefined(self, capsys, tmp_path):
        # P(R=1|E=1) = 5e-324: the closed form read [0, 0], the oracle [0, 1]
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps(SUBNORMAL_DENOMINATOR))
        code, out, err = run(capsys, "bound", str(path), "--method", "both")
        assert code == EXIT_UNDEFINED
        assert out == ""
        assert "Traceback" not in err
        assert "subnormal" in err

    def test_subnormal_exposure_is_undefined(self, capsys, tmp_path):
        path = tmp_path / "subnormal_exposure.json"
        path.write_text(json.dumps(SUBNORMAL_EXPOSURE))
        code, out, err = run(capsys, "bound", str(path), "--method", "both")
        assert code == EXIT_UNDEFINED
        assert out == ""
        assert "Traceback" not in err
        assert "P(E=1) = 5e-324 is subnormal" in err

    def test_inapplicable_mode_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "bound", TRIAL_CSV, "--mode", "ignore-mediator")
        assert code == EXIT_INPUT_ERROR
        assert err

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "bound")
        assert code == EXIT_INPUT_ERROR


class TestAudit:
    def test_confounded_audit(self, capsys):
        code, out, _ = run(capsys, "audit", CONFOUNDED_JSON)
        assert code == EXIT_OK
        audit = json.loads(out)["audit"]
        displays = {
            e["mode"]: (e["lower_display"], e["upper_display"]) for e in audit["entries"]
        }
        assert displays["full"] == ("0.00", "0.21")
        assert displays["ignore-mediator"] == ("0.00", "0.53")
        assert displays["ignore-covariate"] == ("0.24", "0.59")
        assert displays["ignore-both"] == ("0.29", "0.97")
        assert audit["headline_disagreement"] is True

    def test_crossover_audit(self, capsys):
        code, out, _ = run(capsys, "audit", CROSSOVER_JSON)
        assert code == EXIT_OK
        audit = json.loads(out)["audit"]
        assert audit["relations"][0][1] == "disjoint"
        assert audit["headline_disagreement"] is True

    def test_basic_audit_is_quiet(self, capsys):
        code, out, _ = run(capsys, "audit", TRIAL_CSV)
        assert code == EXIT_OK
        audit = json.loads(out)["audit"]
        assert len(audit["entries"]) == 1
        assert audit["headline_disagreement"] is False

    def test_method_flag(self, capsys):
        code, out, _ = run(capsys, "audit", CROSSOVER_JSON, "--method", "both")
        assert code == EXIT_OK
        audit = json.loads(out)["audit"]
        assert {e["method"] for e in audit["entries"]} == {"closed", "oracle"}

    def test_amplified_overshoot_is_clamped_not_a_crash(self, capsys, tmp_path):
        path = tmp_path / "amplified.json"
        path.write_text(json.dumps(AMPLIFIED_OVERSHOOT))
        code, out, err = run(capsys, "audit", str(path), "--method", "both")
        assert code == EXIT_OK, err
        assert "Traceback" not in err
        entries = json.loads(out)["audit"]["entries"]
        assert any(e["lower"] is not None for e in entries)
        for closed, oracle in zip(entries[0::2], entries[1::2]):
            assert (closed["mode"], closed["method"], oracle["method"]) == (oracle["mode"], "closed", "oracle")
            assert closed["error"] == oracle["error"]
            if closed["lower"] is not None:
                assert abs(closed["lower"] - oracle["lower"]) <= TOLERANCE
                assert abs(closed["upper"] - oracle["upper"]) <= TOLERANCE

    def test_library_path_reads_the_clamped_tables(self, capsys, tmp_path):
        path = tmp_path / "overshoot.json"
        path.write_text(json.dumps(RESPONSE_OVERSHOOT))
        code, out, err = run(capsys, "audit", str(path), "--method", "both")
        assert code == EXIT_OK, err
        printed = [(e["lower"], e["upper"]) for e in json.loads(out)["audit"]["entries"]]
        scenario = scenario_from_dict(RESPONSE_OVERSHOOT)
        assert validate_scenario(scenario) == ()
        methods = (Method.CLOSED_FORM, Method.ORACLE)
        audited = [(e.interval.lower, e.interval.upper) for e in run_audit(scenario, methods).entries]
        full = [(iv.lower, iv.upper) for iv in compute_intervals(scenario, AnalysisMode.FULL, methods)]
        assert len(audited) == len(printed) == 4
        for got, want in zip(audited + full, printed + printed[:2]):
            assert got == pytest.approx(want, abs=1e-9)

    def test_library_methods_agree_on_a_validated_overshoot(self):
        scenario = scenario_from_dict(RESPONSE_OVERSHOOT)
        assert validate_scenario(scenario) == ()
        closed = pc_bounds(derive_observables(scenario))
        oracle = oracle_bounds(scenario).interval
        assert abs(closed.lower - oracle.lower) <= 1e-9
        assert abs(closed.upper - oracle.upper) <= 1e-9

    def test_amplified_overshoot_notes_stay_probabilities(self):
        scenario = scenario_from_dict(AMPLIFIED_OVERSHOOT)
        for mode in applicable_modes(scenario.structure):
            observed = derive_observables(scenario, mode)
            # a minus after an "e" is an exponent's sign, as in 9.9e-301
            assert not any(re.search(r"(?<![eE])-\d", note) for note in observed.notes), observed.notes
        # read as given, the tables would give the joint law's P(R=1|E=1) = -3.6e-9
        note = derive_observables(scenario, AnalysisMode.IGNORE_COVARIATE).notes[-1]
        pairs = re.findall(r"P\(R=1\|E=[01]\) (\S+) vs ([^,\s]+)", note)
        assert len(pairs) == 2, note
        assert all(0.0 <= float(value) <= 1.0 for pair in pairs for value in pair), note


class TestEdgeRegionFuzz:
    # derandomized, so every run draws the same examples and a failure repeats
    @settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=edge_scenario_docs())
    # P(E=0) = 8e-10: the ignore-covariate collapse mixes P(R=1|E=0) = 1 exactly, not a value past 1
    @example(
        doc={
            "structure": "covariate",
            "covariate_prior": [0.2, 0.8],
            "exposure": {"S=0": 1.0, "S=1": 0.999999999},
            "response": {"E=0,S=0": 0.0, "E=0,S=1": 1.0, "E=1,S=0": 0.0, "E=1,S=1": 1.0},
        }
    )
    def test_audit_both_methods_on_edge_inputs(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "edge.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["audit", str(path), "--method", "both"])
        assert code in (EXIT_OK, EXIT_INPUT_ERROR, EXIT_UNDEFINED), err.getvalue()
        if code != EXIT_OK:
            return
        report = json.loads(out.getvalue())
        scenario = scenario_from_dict(report["input"]["scenario"])
        entries = report["audit"]["entries"]
        for closed, oracle in zip(entries[0::2], entries[1::2]):
            assert (closed["method"], oracle["method"]) == ("closed", "oracle")
            assert closed["mode"] == oracle["mode"]
            assert closed["error"] == oracle["error"]
            if closed["error"] is not None:
                continue
            for entry in (closed, oracle):
                assert 0.0 <= entry["lower"] <= entry["upper"] <= 1.0
            denominator = derive_observables(scenario, AnalysisMode(closed["mode"])).p_r1_given_e1
            if denominator >= 1e-3:
                assert abs(closed["lower"] - oracle["lower"]) <= TOLERANCE
                assert abs(closed["upper"] - oracle["upper"]) <= TOLERANCE


def compensated_sum(iterable, /, start=0):
    """The builtin `sum` as Python 3.12 computes it: Neumaier-compensated over floats."""
    values = list(iterable)
    if start != 0 or not all(type(v) is float for v in values):
        return BUILTIN_SUM(values, start)
    total = compensation = 0.0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


class TestInterpreterSum:
    """Reports do not depend on how the interpreter's `sum` adds floats."""

    def both_sums(self, capsys, monkeypatch, tmp_path, doc, *argv):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        plain = run(capsys, *argv, str(path))
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "sum", compensated_sum)
            compensated = run(capsys, *argv, str(path))
        return plain, compensated

    def test_audit_stdout(self, capsys, monkeypatch, tmp_path):
        # summed with a compensated `sum`, the ignore-covariate collapse would
        # give the closed upper bound 0.74195875917 instead of 0.741958759171
        plain, compensated = self.both_sums(capsys, monkeypatch, tmp_path, SUM_SENSITIVE, "audit", "--method", "both")
        assert plain[0] == EXIT_OK
        assert compensated == plain

    def test_prior_sum_message(self, capsys, monkeypatch, tmp_path):
        doc = {
            "structure": "covariate",
            "covariate_prior": [0.1] * 10 + [1e-8],
            "exposure": {f"S={s}": 0.5 for s in range(11)},
            "response": {f"E={e},S={s}": 0.5 for e in (0, 1) for s in range(11)},
        }
        plain, compensated = self.both_sums(capsys, monkeypatch, tmp_path, doc, "bound")
        assert plain[0] == EXIT_INPUT_ERROR
        assert "entries sum to 1.00000001, not 1" in plain[2]
        assert compensated == plain


class TestEstimate:
    def test_counts_to_scenario_json(self, capsys, confounded_scenario):
        code, out, _ = run(capsys, "estimate", CONFOUNDED_CSV)
        assert code == EXIT_OK
        from causabound import scenario_from_dict

        assert scenario_from_dict(json.loads(out)) == confounded_scenario

    def test_scenario_json_is_not_counts(self, capsys):
        code, _, err = run(capsys, "estimate", CROSSOVER_JSON)
        assert code == EXIT_INPUT_ERROR
        assert err

    def test_empty_stratified_cell_is_undefined(self, capsys, tmp_path):
        # the confounded counts with stratum S=1's E=1 rows emptied
        lines = ["E,M,R,S,count"]
        for line in (DATA / "mediated_confounding_counts.csv").read_text().splitlines()[1:]:
            e, m, r, s, count = line.split(",")
            lines.append(",".join((e, m, r, s, "0" if (e, s) == ("1", "1") else count)))
        path = tmp_path / "empty_stratum.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "estimate", str(path))
        assert code == EXIT_UNDEFINED
        assert out == ""
        assert "Traceback" not in err
        assert "E=1,S=1" in err


class TestOracleCheck:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--seed", "3", "--trials", "5")
        assert code == EXIT_OK
        assert "max endpoint gap" in out
        assert "guardrail" in out
        assert "all structures agree within 1e-09" in out

    def test_same_seed_is_byte_identical(self, capsys):
        first = run(capsys, "oracle-check", "--seed", "9", "--trials", "4")
        second = run(capsys, "oracle-check", "--seed", "9", "--trials", "4")
        assert first == second

    def test_zero_trials_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "oracle-check", "--trials", "0")
        assert code == EXIT_INPUT_ERROR
        assert err


class TestDemo:
    def test_text_demo_passes(self, capsys):
        code, out, _ = run(capsys, "demo")
        assert code == EXIT_OK
        assert "demo: ok" in out
        assert out.count("MISMATCH") == 0

    def test_json_demo_passes(self, capsys):
        code, out, _ = run(capsys, "demo", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["checked"] == 18
        assert len(doc["cases"]) == 4

    def test_tampered_reference_case_fails_with_diff(self, capsys, monkeypatch):
        cases = list(demo_module.REFERENCE_CASES)
        broken = cases[0]._replace(
            expected=((cases[0].expected[0][0], "0.61", "1.00"),),
        )
        monkeypatch.setattr(demo_module, "REFERENCE_CASES", (broken, *cases[1:]))
        code, out, _ = run(capsys, "demo")
        assert code == EXIT_CHECK_FAILED
        assert "MISMATCH" in out
        assert "expected [0.61, 1.00]" in out
