"""Output checks.  Each returns a list of problems; an empty list passes."""

from __future__ import annotations

import json


def _parse(output: bytes) -> tuple[object, list[str]]:
    try:
        return json.loads(output), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


def report_problems(output: bytes, both: bool, tolerance: float) -> list[str]:
    """Every interval inside [0, 1]; with both methods, closed form and
    oracle agree within `tolerance` in every mode."""
    doc, problems = _parse(output)
    if problems:
        return problems
    try:
        rows = doc["audit"]["entries"] if "audit" in doc else doc["intervals"]
        by_mode: dict[str, dict[str, tuple]] = {}
        for row in rows:
            lower, upper = row["lower"], row["upper"]
            where = f"{row['mode']}/{row['method']}"
            if lower is None or upper is None:
                if not row.get("error"):
                    problems.append(f"{where}: no interval and no error")
            elif not 0.0 <= lower <= upper <= 1.0:
                problems.append(f"{where}: [{lower!r}, {upper!r}] is not inside [0, 1]")
            by_mode.setdefault(row["mode"], {})[row["method"]] = (lower, upper)
    except (KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]
    if not by_mode:
        problems.append("report holds no interval")
    for mode, methods in by_mode.items() if both else ():
        closed, oracle = methods.get("closed"), methods.get("oracle")
        if closed is None or oracle is None:
            problems.append(f"{mode}: missing the closed or the oracle entry")
        elif None in closed or None in oracle:
            if closed != oracle:
                problems.append(f"{mode}: only one method gave an interval")
        elif max(abs(closed[0] - oracle[0]), abs(closed[1] - oracle[1])) > tolerance:
            problems.append(f"{mode}: closed {closed} and oracle {oracle} differ by more than {tolerance}")
    return problems


def demo_problems(output: bytes) -> list[str]:
    doc, problems = _parse(output)
    if problems:
        return problems
    if not isinstance(doc, dict) or doc.get("ok") is not True or not doc.get("checked"):
        return ['demo does not report "ok": true with checked intervals']
    return []


def estimate_problems(output: bytes, expected: dict) -> list[str]:
    """The estimated scenario equals the one-pass count ratios exactly."""
    doc, problems = _parse(output)
    if problems:
        return problems
    if doc == expected:
        return []
    if not isinstance(doc, dict):
        return ["estimate is not a JSON object"]
    for field, want in expected.items():
        if doc.get(field) != want:
            return [f"estimate field {field!r} differs from the count ratios"]
    return ["estimate has fields the count ratios do not"]
