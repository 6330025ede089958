"""Deterministic rendering of results to JSON and CSV."""

import gc
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from causabound import (
    AnalysisMode,
    AuditEntry,
    AuditReport,
    Method,
    PcInterval,
    Structure,
    applicable_modes,
    compute_intervals,
    derive_observables,
    digest_bytes,
    display,
    full_precision,
    pc_bounds,
    random_scenario,
    render_csv,
    render_json,
    report_document,
    run_audit,
    scenario_from_dict,
    scenario_to_dict,
)
from causabound.demo import demo_document
from causabound.report import audit_payload


class TestNumberFormatting:
    def test_full_precision_keeps_twelve_significant_digits(self):
        assert full_precision(1 / 3) == 0.333333333333
        assert full_precision(0.705882352941176) == 0.705882352941

    def test_full_precision_passes_short_values_through(self):
        assert full_precision(0.6) == 0.6
        assert full_precision(1.0) == 1.0
        assert full_precision(0.0) == 0.0

    def test_display_rounds_to_two_decimals(self):
        assert display(0.6) == "0.60"
        assert display(0.705882352941) == "0.71"
        assert display(1.0) == "1.00"
        assert display(0.2866) == "0.29"

    def test_digest_is_prefixed_sha256(self):
        digest = digest_bytes(b"x")
        assert digest.startswith("sha256:")
        assert len(digest) == len("sha256:") + 64
        assert digest == digest_bytes(b"x")
        assert digest != digest_bytes(b"y")


def full_closed_form(scenario):
    """The report rows of `bound` with its default mode and method."""
    return [AuditEntry(AnalysisMode.FULL, Method.CLOSED_FORM, pc_bounds(derive_observables(scenario)))]


class TestReportDocument:
    def build(self, scenario, methods=(Method.CLOSED_FORM,), with_audit=False):
        intervals = full_closed_form(scenario)
        audit = run_audit(scenario, methods=methods) if with_audit else None
        return report_document(scenario, digest_bytes(b"input"), intervals, audit=audit)

    def test_document_shape(self, crossover_scenario):
        doc = self.build(crossover_scenario)
        assert doc["tool"] == "causabound"
        assert doc["input"]["digest"].startswith("sha256:")
        assert doc["display"] == {"decimals": 2, "full_precision_significant_digits": 12}
        entry = doc["intervals"][0]
        assert set(entry) == {
            "mode", "method", "lower", "upper", "lower_display", "upper_display", "notes",
        }
        assert entry["lower"] == 0.705882352941
        assert entry["lower_display"] == "0.71"

    def test_scenario_echo_round_trips(self, crossover_scenario):
        doc = self.build(crossover_scenario)
        assert scenario_from_dict(doc["input"]["scenario"]) == crossover_scenario

    def test_rounded_values_are_derived_from_full_precision(self, crossover_scenario):
        doc = self.build(crossover_scenario)
        for entry in doc["intervals"]:
            assert entry["lower_display"] == display(entry["lower"])
            assert entry["upper_display"] == display(entry["upper"])

    def test_error_rows_have_the_interval_row_fields(self):
        method = Method.CLOSED_FORM
        entries = (
            AuditEntry(AnalysisMode.FULL, method, PcInterval(0.1, 0.2, notes=("n",))),
            AuditEntry(AnalysisMode.IGNORE_MEDIATOR, method, None, "P(R=1|E=1) is 0"),
            AuditEntry(AnalysisMode.IGNORE_COVARIATE, method, None, "P(E=1) is 0"),
        )
        report = AuditReport(Structure.MEDIATOR_COVARIATE, (method,), entries, ((None,) * 3,) * 3, False)
        row, failed, other = audit_payload(report)["entries"]
        assert row["error"] is None
        assert list(failed) == list(row)
        assert failed == {
            "mode": "ignore-mediator", "method": "closed", "lower": None, "upper": None,
            "lower_display": None, "upper_display": None, "notes": [], "error": "P(R=1|E=1) is 0",
        }
        # every error row gets its own notes list
        assert failed["notes"] is not other["notes"]

    def test_audit_block(self, crossover_scenario):
        doc = self.build(crossover_scenario, with_audit=True)
        audit = doc["audit"]
        assert audit["headline_disagreement"] is True
        assert audit["relations"][0][1] == "disjoint"
        modes = [e["mode"] for e in audit["entries"]]
        assert modes == ["full", "ignore-covariate"]


class TestRenderers:
    def test_json_is_deterministic_and_newline_terminated(self, crossover_scenario):
        doc = report_document(
            crossover_scenario,
            digest_bytes(b"input"),
            full_closed_form(crossover_scenario),
        )
        first = render_json(doc)
        second = render_json(doc)
        assert first == second
        assert first.endswith("\n")
        assert json.loads(first)["tool"] == "causabound"

    def test_csv_lists_interval_rows(self, crossover_scenario):
        doc = report_document(
            crossover_scenario,
            digest_bytes(b"input"),
            full_closed_form(crossover_scenario),
        )
        lines = render_csv(doc).splitlines()
        assert lines[0] == "mode,method,lower,upper,lower_display,upper_display,notes,error"
        assert len(lines) == 2
        assert lines[1].startswith("full,closed,")

    def test_csv_prefers_audit_entries_when_present(self, confounded_scenario):
        audit = run_audit(confounded_scenario, methods=(Method.CLOSED_FORM,))
        doc = report_document(confounded_scenario, digest_bytes(b"input"), [], audit=audit)
        lines = render_csv(doc).splitlines()
        assert len(lines) == 5
        assert lines[1].startswith("full,")
        assert lines[2].startswith("ignore-mediator,")

    def test_interval_payload_carries_notes(self):
        interval = PcInterval(0.1, 0.2, notes=("something notable",))
        doc = report_document(
            scenario_from_dict(
                {"structure": "basic", "response": {"E=0": 0.12, "E=1": 0.3}}
            ),
            digest_bytes(b"input"),
            [AuditEntry(AnalysisMode.FULL, Method.CLOSED_FORM, interval)],
        )
        assert doc["intervals"][0]["notes"] == ["something notable"]


def dumps(tree) -> str:
    """The reference `render_json` must match byte for byte."""
    return json.dumps(tree, indent=2) + "\n"


# quote, backslash, controls, DEL, non-ASCII, a character outside the BMP, lone surrogates
SPECIAL_STRINGS = ("", '"', "\\", "\x00", "\n\t\r\x08\x0c", "\x1f", "\x7f", "é", "\u2028", "\U0001f4a5", "\ud800", "\udfff")
SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, 1e16, 1e-7, 1e22, 0.1, float("nan"), float("inf"), float("-inf"))
strings = st.sampled_from(SPECIAL_STRINGS) | st.text(st.characters(exclude_categories=()), max_size=6)
scalars = (
    strings
    | st.sampled_from(SPECIAL_FLOATS)
    | st.floats()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.booleans()
    | st.none()
)
trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(strings, children, max_size=4)
    ),
    max_leaves=30,
)


# every special scalar once, so a long container cycling through it holds each kind of member
LONG_MEMBERS = (*SPECIAL_STRINGS, *SPECIAL_FLOATS, 2**64 + 1, -(2**64), 0, -7, True, False, None)


def _long(n):
    """A list of `n` members, cycling through `LONG_MEMBERS`."""
    return [LONG_MEMBERS[i % len(LONG_MEMBERS)] for i in range(n)]


def _long_dict(n):
    """A dict of `n` members cycling through `LONG_MEMBERS`, each key a special string made unique."""
    return {f"{key}{i}": value for i, key, value in zip(range(n), itertools.cycle(SPECIAL_STRINGS), _long(n))}


class TestJsonWriter:
    @settings(max_examples=300, derandomize=True)
    @given(trees)
    @example({})
    @example([])
    @example(())
    @example({"a": {}, "b": [], "c": [{}, [[]], ()]})
    @example([[[{}]], {"": []}])
    @example({"\ud800": [2**64 + 1, -(2**64), -0.0, 5e-324, True, False, None]})
    def test_matches_json_dumps(self, tree):
        assert render_json(tree) == dumps(tree)

    # 64 members and more go through json's C encoder, fewer through the writer's own loop
    @pytest.mark.parametrize("n", [63, 64, 65, 300])
    def test_long_flat_containers_match_json_dumps(self, n):
        for flat in (_long(n), tuple(_long(n)), _long_dict(n)):
            for tree in (flat, [flat, {"": flat}], {"a": {"b": [flat, []]}, "c": flat, "d": 1}):
                assert render_json(tree) == dumps(tree)

    @settings(max_examples=50, derandomize=True)
    @given(
        st.lists(scalars, min_size=64, max_size=70)
        | st.lists(scalars, min_size=64, max_size=70).map(tuple)
        | st.dictionaries(strings, scalars, min_size=64, max_size=70)
    )
    def test_drawn_long_flat_containers_match_json_dumps(self, flat):
        assert render_json(flat) == dumps(flat)
        assert render_json({"nested": [flat]}) == dumps({"nested": [flat]})

    @pytest.mark.parametrize(
        "tree",
        [
            [*_long(64), AnalysisMode.FULL],
            (AnalysisMode.FULL, *_long(64)),
            {**_long_dict(64), "mode": AnalysisMode.FULL},
            {**_long_dict(64), 1: "int key"},  # json.dumps would write it as "1"
            {**_long_dict(64), Structure.BASIC: "str subclass key"},
            {"nested": [[*_long(100), complex(1, 2)]]},
        ],
        ids=["str-subclass-last", "str-subclass-first", "dict-str-subclass", "int-key", "str-subclass-key", "nested"],
    )
    def test_long_containers_refuse_other_keys_and_values(self, tree):
        with pytest.raises(TypeError):
            render_json(tree)

    @pytest.mark.parametrize("structure", list(Structure))
    def test_report_documents_match_json_dumps(self, structure):
        rng = random.Random(f"render:{structure.value}")
        both = (Method.CLOSED_FORM, Method.ORACLE)
        for _ in range(25):
            scenario = random_scenario(rng, structure, max_strata=5)
            digest = digest_bytes(repr(scenario).encode())
            docs = [scenario_to_dict(scenario), report_document(scenario, digest, (), run_audit(scenario, both))]
            for mode in applicable_modes(structure):
                intervals = compute_intervals(scenario, mode, both)
                entries = [AuditEntry(mode, method, iv) for method, iv in zip(both, intervals)]
                docs.append(report_document(scenario, digest, entries))
            for doc in docs:
                assert render_json(doc) == dumps(doc)

    def test_demo_document_matches_json_dumps(self):
        doc, ok = demo_document()
        assert ok
        assert render_json(doc) == dumps(doc)

    @pytest.mark.parametrize(
        "tree",
        [
            {1: "int key"},
            {None: "null key"},
            {("a", "b"): 0},
            {Structure.BASIC: "str subclass key"},
            {"nested": [{"ok": 1}, {2.5: "float key"}]},
            {"value": object()},
            [b"bytes"],
            {"value": {1, 2}},
            [[AnalysisMode.FULL]],  # a str subclass: its `.value` belongs in a document
            Structure.BASIC,
            [1, True, None, 2.5, "s", complex(1, 2)],
        ],
    )
    def test_other_keys_and_values_raise_type_error(self, tree):
        with pytest.raises(TypeError):
            render_json(tree)

    def test_leaves_no_cyclic_garbage(self, confounded_scenario):
        doc = report_document(
            confounded_scenario,
            digest_bytes(b"input"),
            (),
            run_audit(confounded_scenario, (Method.CLOSED_FORM, Method.ORACLE)),
        )
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            render_json(doc)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
