"""Discrete probability scenarios.

A scenario fixes the observable law of a binary exposure E and binary
response R, optionally routed through a binary mediator M and stratified by
a covariate S with K >= 2 levels.  Four structures are supported:

    basic               tables P(R=1|E=e)
    mediator            tables P(M=1|E=e), P(R=1|M=m)
    covariate           prior P(S=s), tables P(E=1|S=s), P(R=1|E=e,S=s)
    mediator_covariate  prior P(S=s), tables P(E=1|S=s), P(M=1|E=e,S=s),
                        P(R=1|M=m,S=s)

All tables hold conditional probabilities of the indexed variable being 1.
Mediator structures carry no direct E -> R edge: R depends on E only
through M (within a stratum, where S is present).

Scenarios are immutable values.  `validate_scenario` reports violations
instead of raising, so a caller can surface every problem at once; the JSON
loaders raise ScenarioFormatError for structural problems that make a
Scenario impossible to build at all.
"""

from __future__ import annotations

import enum
import json
from typing import Any, NamedTuple

from .errors import ScenarioFormatError

Pair = tuple[float, float]

# slack for range and simplex checks; inputs failing by more are rejected,
# never renormalized
PROBABILITY_TOLERANCE = 1e-9


class Structure(str, enum.Enum):
    """Which variables the scenario observes besides E and R."""

    BASIC = "basic"
    MEDIATOR = "mediator"
    COVARIATE = "covariate"
    MEDIATOR_COVARIATE = "mediator_covariate"

    @property
    def has_mediator(self) -> bool:
        return self in (Structure.MEDIATOR, Structure.MEDIATOR_COVARIATE)

    @property
    def has_covariate(self) -> bool:
        return self in (Structure.COVARIATE, Structure.MEDIATOR_COVARIATE)

    @property
    def variables(self) -> tuple[str, ...]:
        names = ["E"]
        if self.has_mediator:
            names.append("M")
        names.append("R")
        if self.has_covariate:
            names.append("S")
        return tuple(names)


class AnalysisMode(str, enum.Enum):
    """How much of the structure the analyst chooses to use."""

    FULL = "full"
    IGNORE_MEDIATOR = "ignore-mediator"
    IGNORE_COVARIATE = "ignore-covariate"
    IGNORE_BOTH = "ignore-both"

    @property
    def drops_mediator(self) -> bool:
        return self in (AnalysisMode.IGNORE_MEDIATOR, AnalysisMode.IGNORE_BOTH)

    @property
    def drops_covariate(self) -> bool:
        return self in (AnalysisMode.IGNORE_COVARIATE, AnalysisMode.IGNORE_BOTH)


class Scenario(NamedTuple):
    """One observable law, shaped according to `structure`.

    Field shapes:

    - response: Pair for basic (indexed by E) and mediator (indexed by M);
      a K-tuple of such pairs for the stratified structures.
    - mediator: Pair (P(M=1|E=0), P(M=1|E=1)) for the mediator structure,
      K-tuple of pairs for mediator_covariate, otherwise None.
    - exposure: optional marginal P(E=1) for structures without S; a
      K-tuple P(E=1|S=s) (required) for structures with S.
    - covariate_prior: K-tuple P(S=s) for structures with S, else None.
    """

    structure: Structure
    response: tuple[Any, ...]
    mediator: tuple[Any, ...] | None = None
    exposure: tuple[float, ...] | float | None = None
    covariate_prior: tuple[float, ...] | None = None

    @property
    def n_strata(self) -> int:
        if self.structure.has_covariate and self.covariate_prior is not None:
            return len(self.covariate_prior)
        return 1

    def response_pair(self, stratum: int = 0) -> Pair:
        """Response table row for one stratum (the only row when S is absent)."""
        if self.structure.has_covariate:
            return self.response[stratum]
        return self.response  # type: ignore[return-value]

    def mediator_pair(self, stratum: int = 0) -> Pair:
        if self.mediator is None:
            raise ValueError(f"structure {self.structure.value} has no mediator table")
        if self.structure.has_covariate:
            return self.mediator[stratum]
        return self.mediator  # type: ignore[return-value]

    def exposure_probability(self, stratum: int = 0) -> float | None:
        """P(E=1|S=s), or the marginal P(E=1) when S is absent (may be None)."""
        if self.structure.has_covariate:
            return None if self.exposure is None else self.exposure[stratum]
        return self.exposure  # type: ignore[return-value]


def _is_probability_like(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_entry(violations: list[str], label: str, value: Any) -> None:
    if not _is_probability_like(value):
        violations.append(f"{label}: expected a number, found {value!r}")
    elif not -PROBABILITY_TOLERANCE <= value <= 1.0 + PROBABILITY_TOLERANCE:
        violations.append(f"{label}: value {value!r} outside [0, 1]")


def _check_pair(violations: list[str], name: str, var: str, value: Any, stratum: int | None) -> None:
    suffix = "" if stratum is None else f",S={stratum}"
    if not isinstance(value, tuple) or len(value) != 2:
        where = name if stratum is None else f"{name}[S={stratum}]"
        violations.append(f"{where}: expected a pair indexed by {var}=0,1")
        return
    for v in (0, 1):
        _check_entry(violations, f"{name}[{var}={v}{suffix}]", value[v])


def validate_scenario(scenario: Scenario) -> tuple[str, ...]:
    """Check shapes and probability ranges; return violations, empty if ok.

    Every entry of every table must lie in [0, 1] and the covariate prior
    must sum to 1, both within 1e-9.  Tables must match the declared
    structure exactly: no missing strata, no extra ones, nothing present
    that the structure does not define.
    """
    v: list[str] = []
    if not isinstance(scenario.structure, Structure):
        return (f"structure: expected one of {[s.value for s in Structure]}, found {scenario.structure!r}",)
    st = scenario.structure

    strata: int | None = None
    if st.has_covariate:
        prior = scenario.covariate_prior
        if not isinstance(prior, tuple) or len(prior) < 2:
            v.append("covariate_prior: expected a tuple of at least 2 stratum weights")
        else:
            strata = len(prior)
            for s, w in enumerate(prior):
                _check_entry(v, f"covariate_prior[{s}]", w)
            if all(_is_probability_like(w) for w in prior):
                total = sum(prior)
                if abs(total - 1.0) > PROBABILITY_TOLERANCE:
                    v.append(f"covariate_prior: entries sum to {total!r}, not 1")
    elif scenario.covariate_prior is not None:
        v.append(f"covariate_prior: not defined for structure {st.value}")

    if st.has_covariate:
        expo = scenario.exposure
        if not isinstance(expo, tuple) or (strata is not None and len(expo) != strata):
            v.append("exposure: expected one P(E=1|S=s) entry per stratum")
        else:
            for s, p in enumerate(expo):
                _check_entry(v, f"exposure[S={s}]", p)
    elif scenario.exposure is not None:
        _check_entry(v, "exposure", scenario.exposure)

    def check_table(name: str, table: Any, var: str) -> None:
        if st.has_covariate:
            if not isinstance(table, tuple) or (strata is not None and len(table) != strata):
                v.append(f"{name}: expected one pair per stratum")
                return
            for s, pair in enumerate(table):
                _check_pair(v, name, var, pair, s)
        else:
            _check_pair(v, name, var, table, None)

    if st.has_mediator:
        if scenario.mediator is None:
            v.append("mediator: required for this structure")
        else:
            check_table("mediator", scenario.mediator, "E")
    elif scenario.mediator is not None:
        v.append(f"mediator: not defined for structure {st.value}")

    response_var = "M" if st.has_mediator else "E"
    check_table("response", scenario.response, response_var)
    return tuple(v)


def clamp_scenario(scenario: Scenario) -> Scenario:
    """Clamp the tolerance overshoot that validation admits, so both methods read the same tables."""

    def clamp(value: Any) -> Any:
        if isinstance(value, tuple):
            return tuple(map(clamp, value))
        return value if value is None or 0.0 <= value <= 1.0 else min(1.0, max(0.0, value))

    return Scenario(scenario.structure, *map(clamp, scenario[1:]))


# ---------------------------------------------------------------------------
# JSON form
#
# Conditional tables are objects keyed by condition strings ("E=1" or
# "E=1,S=0"), each value the probability of the indexed variable being 1.
# The covariate prior is an array indexed by the S value.  A marginal
# exposure (structures without S) is a bare number.


def _parse_condition(key: str, expected: tuple[str, ...], label: str) -> tuple[int, ...]:
    parts = [p.strip() for p in key.split(",")]
    seen: dict[str, int] = {}
    for part in parts:
        var, eq, raw = part.partition("=")
        var = var.strip()
        if not eq or var in seen:
            raise ScenarioFormatError(f"{label}: bad condition key {key!r}")
        try:
            seen[var] = int(raw)
        except ValueError:
            raise ScenarioFormatError(f"{label}: bad condition key {key!r}") from None
    if tuple(sorted(seen)) != tuple(sorted(expected)):
        raise ScenarioFormatError(
            f"{label}: condition {key!r} must name exactly {{{', '.join(sorted(expected))}}}"
        )
    return tuple(seen[var] for var in expected)


def _table_from_json(obj: Any, label: str, var_levels: dict[str, int]) -> dict[tuple[int, ...], float]:
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{label}: expected an object of condition keys")
    names = tuple(var_levels)
    table: dict[tuple[int, ...], float] = {}
    for key, value in obj.items():
        assignment = _parse_condition(str(key), names, label)
        for var, val in zip(names, assignment):
            if not 0 <= val < var_levels[var]:
                raise ScenarioFormatError(f"{label}: condition {key!r} has {var} out of range")
        if assignment in table:
            raise ScenarioFormatError(f"{label}: duplicate condition {key!r}")
        if not _is_probability_like(value):
            raise ScenarioFormatError(f"{label}: value for {key!r} is not a number")
        table[assignment] = float(value)
    expected = 1
    for k in var_levels.values():
        expected *= k
    if len(table) != expected:
        raise ScenarioFormatError(f"{label}: expected {expected} entries, found {len(table)}")
    return table


def scenario_from_dict(doc: Any) -> Scenario:
    """Build a Scenario from its JSON object form.

    Raises ScenarioFormatError when the document cannot be shaped into a
    Scenario at all; out-of-range probabilities are left to
    `validate_scenario` so they can be reported together.
    """
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    try:
        structure = Structure(doc.get("structure"))
    except ValueError:
        raise ScenarioFormatError(
            f"structure: expected one of {[s.value for s in Structure]}, found {doc.get('structure')!r}"
        ) from None

    allowed = {"structure", "response"}
    if structure.has_mediator:
        allowed.add("mediator")
    allowed.add("exposure")
    if structure.has_covariate:
        allowed.add("covariate_prior")
    extra = set(doc) - allowed
    if extra:
        raise ScenarioFormatError(f"unknown fields for {structure.value}: {sorted(extra)}")

    strata = 1
    prior: tuple[float, ...] | None = None
    if structure.has_covariate:
        raw_prior = doc.get("covariate_prior")
        if not isinstance(raw_prior, list) or len(raw_prior) < 2:
            raise ScenarioFormatError("covariate_prior: expected an array of at least 2 weights")
        if not all(_is_probability_like(w) for w in raw_prior):
            raise ScenarioFormatError("covariate_prior: entries must be numbers")
        prior = tuple(float(w) for w in raw_prior)
        strata = len(prior)

    def pairs_by_stratum(label: str, cond_var: str) -> tuple[Any, ...]:
        if structure.has_covariate:
            table = _table_from_json(doc.get(label), label, {cond_var: 2, "S": strata})
            return tuple((table[(0, s)], table[(1, s)]) for s in range(strata))
        table = _table_from_json(doc.get(label), label, {cond_var: 2})
        return (table[(0,)], table[(1,)])

    mediator = pairs_by_stratum("mediator", "E") if structure.has_mediator else None
    response = pairs_by_stratum("response", "M" if structure.has_mediator else "E")

    exposure: tuple[float, ...] | float | None
    if structure.has_covariate:
        raw = doc.get("exposure")
        table = _table_from_json(raw, "exposure", {"S": strata})
        exposure = tuple(table[(s,)] for s in range(strata))
    else:
        raw = doc.get("exposure")
        if raw is None:
            exposure = None
        elif _is_probability_like(raw):
            exposure = float(raw)
        else:
            raise ScenarioFormatError("exposure: expected a bare number for this structure")

    return Scenario(
        structure=structure,
        response=response,
        mediator=mediator,
        exposure=exposure,
        covariate_prior=prior,
    )


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Canonical JSON object form; `scenario_from_dict` inverts it exactly."""
    st = scenario.structure
    doc: dict[str, Any] = {"structure": st.value}
    if st.has_covariate:
        doc["covariate_prior"] = list(scenario.covariate_prior or ())
        doc["exposure"] = {
            f"S={s}": scenario.exposure[s] for s in range(scenario.n_strata)  # type: ignore[index]
        }
    elif scenario.exposure is not None:
        doc["exposure"] = scenario.exposure

    def table_doc(table: Any, var: str) -> dict[str, float]:
        if st.has_covariate:
            return {
                f"{var}={v},S={s}": table[s][v]
                for v in (0, 1)
                for s in range(scenario.n_strata)
            }
        return {f"{var}={v}": table[v] for v in (0, 1)}

    if st.has_mediator:
        doc["mediator"] = table_doc(scenario.mediator, "E")
    doc["response"] = table_doc(scenario.response, "M" if st.has_mediator else "E")
    return doc


def load_scenario(path: str) -> Scenario:
    """Read a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"not valid JSON: {exc}") from None
    return scenario_from_dict(doc)
