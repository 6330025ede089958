"""Deterministic report documents.

One schema for both commands: tool identity, input digest, a scenario
echo that re-parses to the same Scenario, interval entries, and the audit
block when present.  Endpoints carry full precision (12 significant
digits) with a 2-decimal display string derived from it; rounded values
are never the primary ones.  Rendering the same input twice is
byte-identical.
"""

from __future__ import annotations

from json.encoder import JSONEncoder
from json.encoder import encode_basestring_ascii as _string
from typing import Any

from ._version import __version__
from .audit import AuditEntry, AuditReport, Relation
from .bounds import Method
from .scenario import AnalysisMode, Scenario, scenario_to_dict

FULL_PRECISION_DIGITS = 12
DISPLAY_DECIMALS = 2


def full_precision(value: float) -> float:
    """Round to 12 significant digits; the report's canonical endpoint form."""
    return float(f"{value:.{FULL_PRECISION_DIGITS}g}")


def display(value: float) -> str:
    """Two-decimal display string."""
    return f"{value:.{DISPLAY_DECIMALS}f}"


def digest_bytes(data: bytes) -> str:
    import hashlib  # here, not at the top: it loads OpenSSL, which `estimate` and `demo` never need

    return "sha256:" + hashlib.sha256(data).hexdigest()


# each enum member's text, and None's, read once: from Python 3.11 `.value` is a Python-level property call
_TEXT = {None: None, **{member: member.value for kind in (AnalysisMode, Method, Relation) for member in kind}}


# a report row's fields, in the order `interval_payload` and `audit_payload` write them
_ROW_FIELDS = ("mode", "method", "lower", "upper", "lower_display", "upper_display", "notes", "error")
# the endpoint fields of a row whose mode failed, all null
_NULL_ENDPOINTS = dict.fromkeys(_ROW_FIELDS[2:6])


def interval_payload(entry: AuditEntry) -> dict[str, Any]:
    """The report row of one entry: its labels, then its endpoints and notes, null and empty if it failed."""
    row = {"mode": _TEXT[entry.mode], "method": _TEXT[entry.method]}
    interval = entry.interval
    if interval is None:
        row.update(_NULL_ENDPOINTS, notes=[])
        return row
    row.update(
        lower=full_precision(interval.lower),
        upper=full_precision(interval.upper),
        lower_display=display(interval.lower),
        upper_display=display(interval.upper),
        notes=list(interval.notes),
    )
    return row


def audit_payload(report: AuditReport) -> dict[str, Any]:
    entries = []
    for e in report.entries:
        row = interval_payload(e)
        row["error"] = e.error
        entries.append(row)
    return {
        "methods": [_TEXT[m] for m in report.methods],
        "entries": entries,
        "relations": [[_TEXT[r] for r in row] for row in report.relations],
        "headline_disagreement": report.headline_disagreement,
    }


# every document opens with the tool's identity
DOCUMENT_HEADER = {"tool": "causabound", "version": __version__}


def report_document(
    scenario: Scenario,
    input_digest: str,
    intervals: tuple[AuditEntry, ...] = (),
    audit: AuditReport | None = None,
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        **DOCUMENT_HEADER,
        "input": {"digest": input_digest, "scenario": scenario_to_dict(scenario)},
        "display": {
            "decimals": DISPLAY_DECIMALS,
            "full_precision_significant_digits": FULL_PRECISION_DIGITS,
        },
        "intervals": [interval_payload(entry) for entry in intervals],
    }
    if audit is not None:
        doc["audit"] = audit_payload(audit)
    return doc


_INFINITY = float("inf")
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _scalar(value: Any) -> str:
    """The JSON text of a str, int, float, bool or None, spelled as `json.dumps` spells it."""
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is float:
        if -_INFINITY < value < _INFINITY:
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _CONSTANTS[value]
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# a container of this many members or more, all flat, is written by json's C encoder in one call;
# on shorter ones, as a report's rows are, checking the member types costs more than the encoder saves
_LONG = 64
_FLAT = frozenset({str, int, float, bool, type(None)})


def _is_flat(node: dict | list | tuple, is_dict: bool) -> bool:
    """Whether every key of `node` is exactly str and every value exactly a `_FLAT` type."""
    if is_dict:
        return set(map(type, node)) == {str} and set(map(type, node.values())) <= _FLAT
    return set(map(type, node)) <= _FLAT


def _write(node: dict | list | tuple, out: list[str], indent: str) -> None:
    """Append the text of one container, opened where `out` ends and closed at `indent`.

    Dict members and list items share one value dispatch; a member only
    adds its key, checked str, to the head it is written after.  A long
    flat container (a scenario echo's table at large K) goes to json's C
    encoder, whose separators put each member on its own line.
    """
    is_dict = type(node) is dict
    if not node:
        out.append("{}" if is_dict else "[]")
        return
    inner = indent + "  "
    separator = ",\n" + inner
    if len(node) >= _LONG and _is_flat(node, is_dict):
        text = JSONEncoder(check_circular=False, separators=(separator, ": ")).encode(node)
        out.append(text[0] + "\n" + inner + text[1:-1] + "\n" + indent + text[-1])
        return
    head = ("{\n" if is_dict else "[\n") + inner
    for value in node.items() if is_dict else node:
        if is_dict:
            # rebinding `value` frees the item pair, which dict iteration then reuses
            key, value = value
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            head += _string(key) + ": "
        kind = type(value)
        if kind is str:
            out.append(head + _string(value))
        elif kind is dict or kind is list or kind is tuple:
            out.append(head)
            _write(value, out, inner)
        else:
            out.append(head + _scalar(value))
        head = separator
    out.append("\n" + indent + ("}" if is_dict else "]"))


def render_json(doc: Any) -> str:
    """`doc` as JSON indented by two spaces, ending in a newline.

    The text is byte for byte what `json.dumps` writes with `indent=2`, plus
    the newline, for every tree of dicts with str keys, lists, tuples, str,
    int, float, bool and None: strings go through json's own ASCII escaper,
    floats through `float.__repr__` with json's NaN, Infinity and -Infinity.
    It is written in one pass into one list, where json's indented encoder
    is pure Python; json's C encoder, unindented, writes each container of
    64 or more flat members, with separators that indent it.  Any other key or value type, a subclass included,
    raises TypeError.  `doc` must be a tree (as `report_document` and
    `demo_document` build), not a cyclic graph.
    """
    kind = type(doc)
    if kind is not dict and kind is not list and kind is not tuple:
        return _scalar(doc) + "\n"
    out: list[str] = []
    _write(doc, out, "")
    out.append("\n")
    return "".join(out)


def _csv_cell(value: Any) -> str:
    """A row field as CSV text: empty for null, 12 significant digits for a float, a list's items joined by "; "."""
    if value is None:
        return ""
    if type(value) is float:
        return f"{value:.{FULL_PRECISION_DIGITS}g}"
    if type(value) is list:
        return "; ".join(value)
    return value


def render_csv(doc: dict[str, Any]) -> str:
    """Interval entries as a flat table (the relation matrix stays JSON-only)."""
    import csv  # here, not at the top: only `--output csv` writes a table
    import io

    rows = doc["audit"]["entries"] if "audit" in doc else doc["intervals"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_ROW_FIELDS)
    for row in rows:
        writer.writerow([_csv_cell(row.get(field)) for field in _ROW_FIELDS])
    return out.getvalue()
