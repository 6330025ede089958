"""End-to-end command behavior, exit codes, and output determinism."""

import builtins
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings

from causabound import (
    AnalysisMode,
    Method,
    applicable_modes,
    compute_intervals,
    derive_observables,
    oracle_bounds,
    pc_bounds,
    reduce_scenario,
    run_audit,
    scenario_from_dict,
    validate_scenario,
)
from causabound import audit as audit_module
from causabound import checks, equivalence_sweep
from causabound import demo as demo_module
from causabound import observables as observables_module
from causabound.checks import TOLERANCE
from causabound.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_UNDEFINED,
    _build_parser,
    main,
)
from conftest import COLLAPSE_ROUNDING, DATA, FULL_MODE_UNDERFLOW, edge_scenario_docs, fraction_image

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

# R(0) = 1 for everyone, so PC = 0 exactly; rounding p0 + p1 before subtracting
# 1 lost the margin, and the oracle's Frechet box read q in [0, 1e-300]
CERTAIN_UNEXPOSED_RESPONSE = {"structure": "basic", "response": {"E=0": 1.0, "E=1": 1e-300}}

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

# inputs each loader refuses with its own message: file name -> (content, message)
LOADER_ERRORS = {
    "repeated_header_variable.csv": (
        b"E,E,R,count\n0,0,0,1\n",
        "variables must be a subset of ('E', 'M', 'R', 'S') without repeats",
    ),
    "one_observed_stratum.csv": (
        b"E,R,S,count\n0,0,0,5\n0,1,0,5\n1,0,0,5\n1,1,0,5\n",
        "covariate S needs at least 2 observed levels",
    ),
    "no_bytes.csv": (b"", "counts file is empty"),
    "unknown_header_variable.csv": (b"E,X,R,count\n0,0,0,1\n", "unknown variables in header: ['X']"),
    "short_row.csv": (b"E,R,count\n0,0\n", "line 2: expected 3 fields"),
    "negative_stratum.csv": (b"E,R,S,count\n0,0,-1,5\n", "line 2: S must be nonnegative"),
    "repeated_assignment.csv": (b"E,R,count\n0,0,5\n0,0,6\n", "line 3: duplicate assignment {'E': 0, 'R': 0}"),
    "array_document.json": (b"[]", "scenario document must be a JSON object"),
    "array_table.json": (
        b'{"structure": "basic", "response": [0.1, 0.3]}',
        "response: expected an object of condition keys",
    ),
    "text_entry.json": (
        b'{"structure": "basic", "response": {"E=0": "x", "E=1": 0.3}}',
        "response: value for 'E=0' is not a number",
    ),
    "bare_variable_key.json": (
        b'{"structure": "basic", "response": {"E": 0.1, "E=1": 0.3}}',
        "response: bad condition key 'E'",
    ),
    "one_entry_prior.json": (
        b'{"structure": "covariate", "covariate_prior": [1.0], "exposure": {"S=0": 0.5}, '
        b'"response": {"E=0,S=0": 0.1, "E=1,S=0": 0.3}}',
        "covariate_prior: expected an array of at least 2 weights",
    ),
    "text_prior.json": (
        b'{"structure": "covariate", "covariate_prior": [0.5, "x"], "exposure": {"S=0": 0.5, "S=1": 0.5}, '
        b'"response": {"E=0,S=0": 0.1, "E=1,S=0": 0.3, "E=0,S=1": 0.1, "E=1,S=1": 0.3}}',
        "covariate_prior: entries must be numbers",
    ),
    "text_exposure.json": (
        b'{"structure": "basic", "exposure": "x", "response": {"E=0": 0.1, "E=1": 0.3}}',
        "exposure: expected a bare number for this structure",
    ),
}

# only stratum 0 has unexposed members, so P(R=1|E=0) = 0 and the risk ratio is
# infinite; stratum 1, of weight 1 - 1e-300 given E=1, has no effect, so PC = 1e-300
RISK_RATIO_INFINITE_TWO_STRATA = {
    "structure": "covariate",
    "covariate_prior": [0.5, 0.5],
    "exposure": {"S=0": 1e-300, "S=1": 1.0},
    "response": {"E=0,S=0": 0.0, "E=1,S=0": 1.0, "E=0,S=1": 1.0, "E=1,S=1": 1.0},
}

# integers `json` accepts but no float holds: read as +-inf, as `json` reads 1e400,
# so validation rejects them; 401 digits is far under Python's 4,300-digit limit
HUGE = b"1" + b"0" * 400
OVER_RANGE_INTEGERS = {
    "response_entry.json": b'{"structure": "basic", "response": {"E=0": ' + HUGE + b', "E=1": 0.3}}',
    "bare_exposure.json": b'{"structure": "basic", "exposure": -' + HUGE + b', "response": {"E=0": 0.1, "E=1": 0.3}}',
    "covariate_prior.json": b'{"structure": "covariate", "covariate_prior": [' + HUGE + b', 0.5], '
    b'"exposure": {"S=0": 0.5, "S=1": 0.5}, "response": {"E=0,S=0": 0.1, "E=1,S=0": 0.3, "E=0,S=1": 0.1, "E=1,S=1": 0.3}}',
}

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv, timeout=60):
    """The CLI in a new interpreter, with usage lines wrapped at 80 columns."""
    env = {**os.environ, "COLUMNS": "80"}
    done = subprocess.run(
        [sys.executable, "-m", "causabound.cli", *argv], capture_output=True, text=True, timeout=timeout, env=env
    )
    return done.returncode, done.stdout, done.stderr


class TestBound:
    def test_counts_file(self, capsys):
        code, out, err = run(capsys, "bound", TRIAL_CSV)
        assert code == EXIT_OK
        doc = json.loads(out)
        entry = doc["intervals"][0]
        assert entry["lower"] == 0.6
        assert entry["upper"] == 1.0
        assert doc["input"]["scenario"]["structure"] == "basic"

    @pytest.mark.parametrize("name", ["basic_trial.csv", "mediated_confounding.json"])
    def test_file_with_byte_order_mark(self, capsys, tmp_path, name):
        # a spreadsheet's "CSV UTF-8" export, or a Windows editor's UTF-8 JSON, starts with the byte-order mark
        raw = b"\xef\xbb\xbf" + (DATA / name).read_bytes()
        path = tmp_path / name
        path.write_bytes(raw)
        code, out, err = run(capsys, "bound", str(path))
        assert code == EXIT_OK, err
        doc = json.loads(out)
        _, plain, _ = run(capsys, "bound", str(DATA / name))
        assert doc["input"]["scenario"] == json.loads(plain)["input"]["scenario"]
        assert doc["intervals"] == json.loads(plain)["intervals"]
        # the digest still names the bytes as given, mark included
        assert doc["input"]["digest"] == "sha256:" + hashlib.sha256(raw).hexdigest()

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

    @pytest.mark.parametrize("name", sorted(LOADER_ERRORS))
    def test_loader_error_is_an_input_error(self, capsys, tmp_path, name):
        content, message = LOADER_ERRORS[name]
        path = tmp_path / name
        path.write_bytes(content)
        code, out, err = run(capsys, "bound", str(path))
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert "Traceback" not in err
        assert err == f"causabound: {message}\n"

    @pytest.mark.parametrize("name", sorted(OVER_RANGE_INTEGERS))
    def test_integer_past_the_float_range_is_a_validation_error(self, capsys, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(OVER_RANGE_INTEGERS[name])
        code, out, err = run(capsys, "bound", str(path))
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("causabound: invalid scenario:\n")
        assert re.search(r": value -?inf outside \[0, 1\]\n", err)

    def test_upper_bound_near_certain_unexposed_response_keeps_its_precision(self, capsys, tmp_path):
        # (1 - r0) / r1; the difference form 1 - (r1 - (1 - r0)) / r1 cancels to 1.42857170538e-10
        path = tmp_path / "rare.json"
        path.write_text(json.dumps({"structure": "basic", "response": {"E=0": 0.9999999999, "E=1": 0.7}}))
        code, out, err = run(capsys, "bound", str(path), "--method", "both")
        assert code == EXIT_OK, err
        assert [entry["upper"] for entry in json.loads(out)["intervals"]] == [1.42857154677e-10] * 2

    def test_infinite_risk_ratio_note_claims_no_bound(self, capsys, tmp_path):
        path = tmp_path / "tiny_stratum.json"
        path.write_text(json.dumps(RISK_RATIO_INFINITE_TWO_STRATA))
        code, out, err = run(capsys, "bound", str(path), "--method", "both")
        assert code == EXIT_OK, err
        for entry in json.loads(out)["intervals"]:
            assert (entry["lower"], entry["upper"]) == (1e-300, 1e-300)
            assert not any("lower bound is 1" in note for note in entry["notes"])

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

    def test_certain_unexposed_response_gives_zero_from_both_methods(self, capsys, tmp_path):
        # the oracle printed [0, 1] here, with exit 0
        path = tmp_path / "certain_unexposed.json"
        path.write_text(json.dumps(CERTAIN_UNEXPOSED_RESPONSE))
        code, out, err = run(capsys, "bound", str(path), "--method", "both")
        assert code == EXIT_OK, err
        closed, oracle = json.loads(out)["intervals"]
        assert (closed["method"], oracle["method"]) == ("closed", "oracle")
        assert (closed["lower"], closed["upper"]) == (0.0, 0.0)
        assert (oracle["lower"], oracle["upper"]) == (0.0, 0.0)

    def test_subnormal_exposure_is_undefined(self, capsys, tmp_path):
        path = tmp_path / "subnormal_exposure.json"
        path.write_text(json.dumps(SUBNORMAL_EXPOSURE))
        code, out, err = run(capsys, "bound", str(path), "--method", "both")
        assert code == EXIT_UNDEFINED
        assert out == ""
        assert "Traceback" not in err
        assert "P(E=1) = 5e-324 is subnormal" in err

    def test_collapse_rounded_outside_the_unit_interval_is_undefined(self, capsys, monkeypatch):
        # no known input rounds a collapsed entry this far, so the collapse is made to
        collapse, pairs = observables_module._collapse_covariate, []

        def overshooting(scenario):
            reduced = collapse(scenario)
            pairs.append((1.0 + 1e-6, reduced.response[0][1]))
            return reduced._replace(response=(pairs[-1],))

        monkeypatch.setattr(observables_module, "_collapse_covariate", overshooting)
        code, out, err = run(capsys, "bound", CROSSOVER_JSON, "--mode", "ignore-covariate")
        message = f"rounding swamps the Bayes weights of the ignore-covariate collapse: {pairs[0]!r}"
        assert (code, out, err) == (EXIT_UNDEFINED, "", f"causabound: undefined: {message}\n")
        code, out, err = run(capsys, "audit", CROSSOVER_JSON, "--method", "both")
        assert code == EXIT_OK, err
        cells = [e for e in json.loads(out)["audit"]["entries"] if e["mode"] == "ignore-covariate"]
        assert [(e["method"], e["lower"], e["upper"], e["error"]) for e in cells] == [
            ("closed", None, None, message),
            ("oracle", None, None, message),
        ]

    def test_inapplicable_mode_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "bound", TRIAL_CSV, "--mode", "ignore-mediator")
        assert code == EXIT_INPUT_ERROR
        assert err

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "bound")
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes need POSIX")
    @pytest.mark.parametrize("command", ["bound", "audit"])
    def test_named_pipe_is_an_input_error_not_a_hang(self, tmp_path, command):
        # opening a pipe with no writer blocks, so the check must come before the first read
        path = tmp_path / "pipe.json"
        os.mkfifo(path)
        code, out, err = run_fresh(command, str(path), timeout=30)
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert "regular file" in err


class TestParserReuse:
    def test_one_parser_per_process_matches_a_fresh_process(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert _build_parser() is _build_parser()
        for argv in (["bound"], ["bound", TRIAL_CSV, "--method", "both"], ["audit", "--method", "none", TRIAL_CSV]):
            assert run(capsys, *argv) == run_fresh(*argv), argv


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

    def test_csv_rows_of_an_undefined_collapse_are_empty_but_the_error(self, capsys, tmp_path):
        # every P(E=1|S=s) = 1, so ignoring S leaves nothing conditionally defined given E=0
        path = tmp_path / "all_exposed.json"
        path.write_text(json.dumps({
            "structure": "covariate",
            "covariate_prior": [0.5, 0.5],
            "exposure": {"S=0": 1.0, "S=1": 1.0},
            "response": {"E=0,S=0": 0.2, "E=0,S=1": 0.8, "E=1,S=0": 0.8, "E=1,S=1": 0.2},
        }))
        code, out, err = run(capsys, "audit", str(path), "--output", "csv")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines() == [
            "mode,method,lower,upper,lower_display,upper_display,notes,error",
            "full,closed,0.6,1,0.60,1.00,P(E=0) = 0: marginal P(R=1|E=0) unavailable,",
            "ignore-covariate,closed,,,,,,P(E=0) = 0: nothing is conditionally defined given E=0",
        ]

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


class TestBoundMatchesAudit:
    @pytest.mark.parametrize("path", sorted(DATA.glob("*.*")), ids=lambda path: path.name)
    def test_bound_prints_the_audit_rows(self, capsys, path):
        code, out, err = run(capsys, "audit", str(path), "--method", "both")
        assert code == EXIT_OK, err
        doc = json.loads(out)
        audit_rows = [{k: v for k, v in row.items() if k != "error"} for row in doc["audit"]["entries"]]
        bound_rows = []
        for mode in applicable_modes(scenario_from_dict(doc["input"]["scenario"]).structure):
            code, out, err = run(capsys, "bound", str(path), "--method", "both", "--mode", mode.value)
            assert code == EXIT_OK, err
            bound_rows += json.loads(out)["intervals"]
        assert [list(row.items()) for row in bound_rows] == [list(row.items()) for row in audit_rows]


class TestIllConditionedCells:
    """A cell whose float error bound 4 K u / r1 exceeds the tolerance is computed exactly."""

    def test_collapse_rounding_shows_no_bias(self, capsys, tmp_path):
        path = tmp_path / "collapse.json"
        path.write_text(json.dumps(COLLAPSE_ROUNDING))
        code, out, err = run(capsys, "audit", str(path), "--method", "both")
        assert code == EXIT_OK, err
        audit = json.loads(out)["audit"]
        rows = [row for row in audit["entries"] if row["mode"] == "ignore-covariate"]
        assert [(row["method"], row["lower"], row["upper"]) for row in rows] == [
            ("closed", 0.0, 0.0),
            ("oracle", 0.0, 0.0),
        ]
        for row in rows:
            assert row["notes"][-1].startswith("P(R=1|E=1) = 1.01648350615e-17: "), row["notes"]
            assert row["notes"][-1].endswith("endpoints computed exactly"), row["notes"]
        assert audit["headline_disagreement"] is False

    def test_full_mode_underflow_gives_the_exact_interval(self):
        scenario = scenario_from_dict(FULL_MODE_UNDERFLOW)
        exact = pc_bounds(derive_observables(fraction_image(scenario)))
        want = [f"{float(value):.12g}" for value in (exact.lower, exact.upper)]
        assert want == ["0.0427623699255", "0.334550960156"]
        for interval in compute_intervals(scenario, AnalysisMode.FULL, (Method.CLOSED_FORM, Method.ORACLE)):
            assert [f"{value:.12g}" for value in (interval.lower, interval.upper)] == want
            assert interval.notes[-1].endswith("endpoints computed exactly"), interval.notes

    def test_a_triggered_cell_builds_one_fraction_image(self, monkeypatch):
        # both methods divide by the same r1, so the trigger fires for the cell, not for each method
        reduced_types = []
        reduce_scenario = audit_module.reduce_scenario

        def counting(scenario, mode):
            reduced_types.append(type(scenario.response[0][0]).__name__)
            return reduce_scenario(scenario, mode)

        monkeypatch.setattr(audit_module, "reduce_scenario", counting)
        scenario = scenario_from_dict(FULL_MODE_UNDERFLOW)
        intervals = compute_intervals(scenario, AnalysisMode.FULL, (Method.CLOSED_FORM, Method.ORACLE))
        assert all(iv.notes[-1].endswith("endpoints computed exactly") for iv in intervals), intervals
        assert reduced_types == ["float", "Fraction"]
        assert compute_intervals(scenario, AnalysisMode.FULL, ()) == ()
        assert run_audit(scenario, ()).entries == ()


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
        image = fraction_image(scenario)
        entries = report["audit"]["entries"]
        for closed, oracle in zip(entries[0::2], entries[1::2]):
            assert (closed["method"], oracle["method"]) == ("closed", "oracle")
            assert closed["mode"] == oracle["mode"]
            assert closed["error"] == oracle["error"]
            if closed["error"] is not None:
                continue
            for entry in (closed, oracle):
                assert 0.0 <= entry["lower"] <= entry["upper"] <= 1.0
            mode = AnalysisMode(closed["mode"])
            observed = derive_observables(scenario, mode)
            exact = pc_bounds(derive_observables(image, mode))
            # each endpoint sums at most K nonnegative terms, then divides once by P(R=1|E=1)
            bound = 4 * len(scenario.response) * 2**-53 / observed.p_r1_given_e1  # 4 K u / r1
            for interval in (pc_bounds(observed), oracle_bounds(reduce_scenario(scenario, mode)).interval):
                assert abs(Fraction(interval.lower) - exact.lower) <= bound, (interval, exact)
                assert abs(Fraction(interval.upper) - exact.upper) <= bound, (interval, exact)


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


class TestCountsLevelPastAnySize:
    # four S=0 cells, then one row whose S level no range could hold: stratum S=1 has no count
    CSV = "E,R,S,count\n0,0,0,5\n0,1,0,5\n1,0,0,5\n1,1,0,5\n0,0,999999999999999999999999999999,1\n"

    @pytest.mark.parametrize("argv", [["estimate"], ["bound", "--method", "both"], ["audit"]], ids=lambda a: a[0])
    def test_is_a_missing_count(self, capsys, tmp_path, argv):
        path = tmp_path / "huge_level.csv"
        path.write_text(self.CSV)
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err == "causabound: missing count for assignment {'E': 0, 'R': 0, 'S': 1}\n"


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

    def test_failure_prints_each_worst_scenario_for_replay(self, capsys, monkeypatch):
        # below every gap, so each structure fails; those with a nonzero gap have a worst scenario
        monkeypatch.setattr(checks, "TOLERANCE", -1)
        code, out, _ = run(capsys, "oracle-check", "--seed", "3", "--trials", "5")
        assert code == EXIT_CHECK_FAILED
        lines = out.splitlines()
        assert lines.count("DISAGREEMENT beyond -1e+00; worst offenders follow for replay:") == 1
        replayed = {}
        for label, doc in zip(lines, lines[1:]):
            if doc.startswith("    {"):
                replayed[label.split()[0]] = scenario_from_dict(json.loads(doc))
        results = equivalence_sweep(3, 5).results
        worst = {r.structure.value: r.worst_scenario for r in results if r.worst_scenario is not None}
        assert worst and replayed == worst


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
