"""Discrete probability scenarios.

A scenario fixes the observable law of a binary exposure E and binary
response R, optionally routed through a binary mediator M and stratified by
a covariate S with K >= 2 levels.  Four structures are supported:

    basic               tables P(R=1|E=e)
    mediator            tables P(M=1|E=e), P(R=1|M=m)
    covariate           prior P(S=s), tables P(E=1|S=s), P(R=1|E=e,S=s)
    mediator_covariate  prior P(S=s), tables P(E=1|S=s), P(M=1|E=e,S=s),
                        P(R=1|M=m,S=s)

All tables hold conditional probabilities of the indexed variable being 1;
a structure lists its pair tables in `Structure.tables`, which every
reader, writer and check of them follows.  Mediator structures carry no
direct E -> R edge: R depends on E only through M (within a stratum, where
S is present).

Every table is stored as K strata of pairs.  A structure without S is the
single stratum K = 1: its response table is the 1-tuple ((r0, r1),), not
the bare pair.  So `basic` is `covariate` at K = 1 and `mediator` is
`mediator_covariate` at K = 1, and nothing downstream branches on the
shape.  The JSON form keeps the structure's own keys ("E=1", or
"E=1,S=0" where S is present).

Scenarios are immutable values.  `validate_scenario` reports violations
instead of raising, so a caller can surface every problem at once; the JSON
loaders raise ScenarioFormatError for structural problems that make a
Scenario impossible to build at all.
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
import math
from collections.abc import Callable, Iterable
from typing import Any, NamedTuple

from .errors import ScenarioFormatError

Pair = tuple[float, float]

# an entry this close outside [0, 1] is stored as the nearest end, and a prior
# sum this close to 1 passes; inputs failing by more are rejected, never renormalized
PROBABILITY_TOLERANCE = 1e-9

# the canonical order of the variables: a structure's `variables`, a counts table's columns
VARIABLE_ORDER = ("E", "M", "R", "S")


def ordered_sum(values: Iterable[float]) -> float:
    """The float total of `values`, added left to right on every Python; the builtin `sum` compensates from 3.12."""
    total: float = 0  # the builtin's start, so a total of ints stays an int
    for value in values:
        total += value
    return total


class Structure(str, enum.Enum):
    """Which variables the scenario observes besides E and R."""

    BASIC = "basic"
    MEDIATOR = "mediator"
    COVARIATE = "covariate"
    MEDIATOR_COVARIATE = "mediator_covariate"

    def __init__(self, value: str) -> None:
        self.has_mediator = value in ("mediator", "mediator_covariate")
        self.has_covariate = value in ("covariate", "mediator_covariate")
        observed = {"M": self.has_mediator, "S": self.has_covariate}
        self.variables = tuple(v for v in VARIABLE_ORDER if observed.get(v, True))
        # per pair table: its field, the variable it gives P(.=1) of, and the one it conditions on besides S
        self.tables = (
            (("mediator", "M", "E"), ("response", "R", "M")) if self.has_mediator else (("response", "R", "E"),)
        )

    def strata(self, k: int) -> tuple[tuple[tuple[str, int], ...], ...]:
        """Each stratum's condition: S=s for s < k where S is observed, else the one empty condition."""
        return tuple((("S", s),) for s in range(k)) if self.has_covariate else ((),)


class AnalysisMode(str, enum.Enum):
    """How much of the structure the analyst chooses to use."""

    FULL = "full"
    IGNORE_MEDIATOR = "ignore-mediator"
    IGNORE_COVARIATE = "ignore-covariate"
    IGNORE_BOTH = "ignore-both"

    def __init__(self, value: str) -> None:
        self.drops_mediator = value in ("ignore-mediator", "ignore-both")
        self.drops_covariate = value in ("ignore-covariate", "ignore-both")


class _ScenarioFields(NamedTuple):
    structure: Structure
    response: tuple[Pair, ...]
    mediator: tuple[Pair, ...] | None = None
    exposure: tuple[float, ...] | None = None
    covariate_prior: tuple[float, ...] | None = None


def _nearest_probability(value: Any) -> Any:
    """A float within PROBABILITY_TOLERANCE outside [0, 1] as the nearest end; any other value as given."""
    if not isinstance(value, float) or 0.0 <= value <= 1.0:
        return value
    return float(value > 0.0) if -PROBABILITY_TOLERANCE <= value <= 1.0 + PROBABILITY_TOLERANCE else value


def _map_entries(f: Callable[[Any], Any], table: Any) -> Any:
    """`table` with `f` of each entry, or of each entry of each pair; a non-tuple as given."""
    if not isinstance(table, tuple):
        return table
    return tuple(tuple(map(f, entry)) if isinstance(entry, tuple) else f(entry) for entry in table)


class Scenario(_ScenarioFields):
    """One observable law, stored as K strata (K = 1 when S is absent).

    Field shapes, each tuple indexed by the stratum s:

    - response: K pairs (P(R=1|E=0,S=s), P(R=1|E=1,S=s)), indexed by M
      instead of E for the mediator structures.
    - mediator: K pairs (P(M=1|E=0,S=s), P(M=1|E=1,S=s)) when the structure
      has a mediator, otherwise None.
    - exposure: K entries P(E=1|S=s), required when S is present; without S
      the optional marginal (P(E=1),), or None.
    - covariate_prior: K entries P(S=s), present exactly when S is.

    For example `Scenario(Structure.BASIC, response=((0.12, 0.3),))`.

    Building one, or `_replace`, stores a float within PROBABILITY_TOLERANCE
    outside [0, 1] as the nearest end, so every method reads probabilities;
    any other value is stored as given, for `validate_scenario` to report.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs) -> Scenario:
        fields = _ScenarioFields(*args, **kwargs)
        return super().__new__(cls, fields.structure, *(_map_entries(_nearest_probability, t) for t in fields[1:]))

    @property
    def n_strata(self) -> int:
        return len(self.response)


def _is_probability_like(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_float(value: int | float) -> float:
    """A JSON number as a float; an int past the float range is +-inf, as `json` reads 1e400."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _entry_fault(value: Any) -> str | None:
    """What is wrong with one table entry, None when it is a probability.

    Callers name the entry only when there is a fault, so a valid table
    costs no message formatting.
    """
    if not _is_probability_like(value):
        return f"expected a number, found {value!r}"
    if not 0.0 <= value <= 1.0:
        return f"value {value!r} outside [0, 1]"
    return None


def condition_key(pairs: Iterable[tuple[str, int]]) -> str:
    """A condition's one spelling ("E=0,S=1"), from its (variable, value) pairs in the order given.

    The JSON writer's keys, the validator's labels and estimation's empty-cell message all call it.
    """
    return ",".join([f"{var}={value}" for var, value in pairs])


def _entry_label(name: str, condition: tuple[tuple[str, int], ...]) -> str:
    """An entry as messages name it: `name[key]` with the writer's key, the bare name for no condition."""
    return f"{name}[{condition_key(condition)}]" if condition else name


def _check_pair(violations: list[str], name: str, var: str, value: Any, stratum: tuple[tuple[str, int], ...]) -> None:
    if not isinstance(value, tuple) or len(value) != 2:
        violations.append(f"{_entry_label(name, stratum)}: expected a pair indexed by {var}=0,1")
        return
    for v in (0, 1):
        if fault := _entry_fault(value[v]):
            violations.append(f"{_entry_label(name, ((var, v), *stratum))}: {fault}")


def validate_scenario(scenario: Scenario) -> tuple[str, ...]:
    """Check shapes and probability ranges; return violations, empty if ok.

    Every entry of every table must lie in [0, 1] (a Scenario stores an
    entry within 1e-9 outside as the nearest end) and the covariate prior
    must sum to 1 within 1e-9.  Tables must match the declared structure
    exactly: no missing strata, no extra ones, nothing present that the
    structure does not define.
    """
    v: list[str] = []
    if not isinstance(scenario.structure, Structure):
        return (f"structure: expected one of {[s.value for s in Structure]}, found {scenario.structure!r}",)
    st = scenario.structure

    # how many strata every table must hold; None when the prior cannot say
    strata: int | None = 1
    if st.has_covariate:
        prior = scenario.covariate_prior
        if not isinstance(prior, tuple) or len(prior) < 2:
            strata = None
            v.append("covariate_prior: expected a tuple of at least 2 stratum weights")
        else:
            strata = len(prior)
            for s, w in enumerate(prior):
                if fault := _entry_fault(w):
                    v.append(f"covariate_prior[{s}]: {fault}")
            if all(_is_probability_like(w) for w in prior):
                total = ordered_sum(prior)
                if abs(total - 1.0) > PROBABILITY_TOLERANCE:
                    v.append(f"covariate_prior: entries sum to {total!r}, not 1")
    elif scenario.covariate_prior is not None:
        v.append(f"covariate_prior: not defined for structure {st.value}")

    def per_stratum(table: Any) -> bool:
        return isinstance(table, tuple) and (strata is None or len(table) == strata)

    if st.has_covariate or scenario.exposure is not None:
        if not per_stratum(scenario.exposure):
            v.append("exposure: expected one P(E=1|S=s) entry per stratum")
        else:
            for stratum, p in zip(st.strata(len(scenario.exposure)), scenario.exposure):  # type: ignore[arg-type]
                if fault := _entry_fault(p):
                    v.append(f"{_entry_label('exposure', stratum)}: {fault}")

    def check_table(name: str, table: Any, var: str) -> None:
        if not per_stratum(table):
            v.append(f"{name}: expected one pair per stratum")
            return
        for stratum, pair in zip(st.strata(len(table)), table):
            _check_pair(v, name, var, pair, stratum)

    if not st.has_mediator and scenario.mediator is not None:
        v.append(f"mediator: not defined for structure {st.value}")
    for name, _, cond_var in st.tables:
        table = getattr(scenario, name)
        if table is None and name == "mediator":
            v.append("mediator: required for this structure")
        else:
            check_table(name, table, cond_var)
    return tuple(v)


# ---------------------------------------------------------------------------
# JSON form
#
# Conditional tables are objects keyed by condition strings ("E=1" or
# "E=1,S=0"), each value the probability of the indexed variable being 1.
# The covariate prior is an array indexed by the S value.  A marginal
# exposure (structures without S) is a bare number; in a Scenario it is the
# 1-tuple of the single stratum.


def decimal_int(text: str) -> int:
    """The integer `text` spells in ASCII decimal digits, with an optional leading minus.

    Surrounding spaces and leading zeros are accepted.  Anything else `int`
    would take ("+0", "1_000", non-ASCII digits) raises ValueError, and so
    does a minus zero, which is no spelling of a level or count.
    """
    if text.isascii() and text.isdigit():  # the common spelling, which `int` reads as it stands
        return int(text)
    text = text.strip()
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()) or (text.startswith("-") and not digits.strip("0")):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _parse_condition(key: str, var_levels: tuple[tuple[str, int], ...], label: str) -> tuple[int, ...]:
    """The in-range assignment, in `var_levels` order, that a key in any spelling names."""
    seen: dict[str, int] = {}
    for part in key.split(","):
        var, eq, raw = part.partition("=")
        var = var.strip()
        if not eq or var in seen:
            raise ScenarioFormatError(f"{label}: bad condition key {key!r}")
        try:
            seen[var] = decimal_int(raw)
        except ValueError:
            raise ScenarioFormatError(f"{label}: bad condition key {key!r}") from None
    expected = sorted(var for var, _ in var_levels)
    if sorted(seen) != expected:
        raise ScenarioFormatError(f"{label}: condition {key!r} must name exactly {{{', '.join(expected)}}}")
    for var, levels in var_levels:
        if not 0 <= seen[var] < levels:
            raise ScenarioFormatError(f"{label}: condition {key!r} has {var} out of range")
    return tuple(seen[var] for var, _ in var_levels)


@functools.lru_cache(maxsize=32)
def _canonical_conditions(var_levels: tuple[tuple[str, int], ...]) -> dict[str, tuple[int, ...]]:
    """Every in-range assignment under its `condition_key`, in `itertools.product` order: a table's order.

    A pair table is its E=0 (or M=0) entries for every stratum, then its
    E=1 entries.  `scenario_to_dict` zips these keys with a table's entries,
    and `_table_from_json` looks keys up here and returns entries in this
    order.  Cached by table shape, so the dict is shared and must not be
    changed; 32 shapes hold every table of the K <= 8 scenarios a sweep draws.
    A key is its variables' one-variable keys joined, so each of those is
    spelled once, not once per assignment.
    """
    parts = [[condition_key(((var, value),)) for value in range(levels)] for var, levels in var_levels]
    keys = map(",".join, itertools.product(*parts))
    return dict(zip(keys, itertools.product(*(range(levels) for _, levels in var_levels))))


def _table_from_json(obj: Any, label: str, var_levels: tuple[tuple[str, int], ...]) -> tuple[float, ...]:
    """A conditional table's entries in `_canonical_conditions(var_levels)` order.

    Canonical keys resolve by lookup; any other spelling (reordered, spaced,
    leading zeros) goes through `_parse_condition` and lands on the same
    assignment, so a condition given twice is a duplicate whatever its
    spellings.  A table of the wrong length is refused without the lookup
    dict of its shape, which may be far larger than the table: every key
    is parsed, so a bad key or value is still reported before the count.
    """
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{label}: expected an object of condition keys")
    expected = math.prod(levels for _, levels in var_levels)
    canonical = _canonical_conditions(var_levels) if len(obj) == expected else {}
    table: dict[tuple[int, ...], float] = {}
    for key, value in obj.items():
        assignment = canonical.get(key)
        if assignment is None:
            assignment = _parse_condition(str(key), var_levels, label)
        if assignment in table:
            raise ScenarioFormatError(f"{label}: duplicate condition {key!r}")
        if type(value) is not float:  # a float, as `json` reads most entries, is stored as it is
            if not _is_probability_like(value):
                raise ScenarioFormatError(f"{label}: value for {key!r} is not a number")
            value = _as_float(value)
        table[assignment] = value
    if len(table) != expected:
        raise ScenarioFormatError(f"{label}: expected {expected} entries, found {len(table)}")
    return tuple(table[assignment] for assignment in canonical.values())


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

    allowed = {"structure", "exposure", *(name for name, _, _ in structure.tables)}
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
        prior = tuple(map(_as_float, raw_prior))
        strata = len(prior)
    # S's part of a table's shape; S is not a key without a covariate
    s_levels = (("S", strata),) if structure.has_covariate else ()

    tables: dict[str, tuple[Pair, ...]] = {}
    for name, _, cond_var in structure.tables:
        entries = _table_from_json(doc.get(name), name, ((cond_var, 2), *s_levels))
        tables[name] = tuple(zip(entries[:strata], entries[strata:]))

    raw = doc.get("exposure")
    exposure: tuple[float, ...] | None
    if structure.has_covariate:
        exposure = _table_from_json(raw, "exposure", s_levels)
    elif raw is None:
        exposure = None
    elif _is_probability_like(raw):
        exposure = (_as_float(raw),)
    else:
        raise ScenarioFormatError("exposure: expected a bare number for this structure")

    return Scenario(structure=structure, exposure=exposure, covariate_prior=prior, **tables)


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Canonical JSON object form; `scenario_from_dict` inverts it exactly."""
    st = scenario.structure
    doc: dict[str, Any] = {"structure": st.value}
    s_levels = (("S", scenario.n_strata),) if st.has_covariate else ()
    if st.has_covariate:
        doc["covariate_prior"] = list(scenario.covariate_prior or ())
        doc["exposure"] = dict(zip(_canonical_conditions(s_levels), scenario.exposure))  # type: ignore[arg-type]
    elif scenario.exposure is not None:
        doc["exposure"] = scenario.exposure[0]
    for name, _, cond_var in st.tables:
        pairs = getattr(scenario, name)
        keys = _canonical_conditions(((cond_var, 2), *s_levels))
        doc[name] = dict(zip(keys, (pair[v] for v in (0, 1) for pair in pairs)))
    return doc


def _unique_names(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's members as a dict; a name given twice is a format error, not last-wins."""
    obj = dict(pairs)
    if len(obj) < len(pairs):  # some name repeats: find the first one given twice
        seen: set[str] = set()
        for name, _ in pairs:
            if name in seen:
                raise ScenarioFormatError(f"name {name!r} repeated in one object")
            seen.add(name)
    return obj


def load_scenario(path: str) -> Scenario:
    """Read a scenario JSON file.

    Bytes that are not UTF-8, integers past Python's digit limit, a name
    repeated within one object and nesting past the recursion limit are
    format errors like any other malformed JSON (all but the last are
    ValueErrors).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_names)
        except (ValueError, RecursionError) as exc:
            raise ScenarioFormatError(f"not valid JSON: {exc}") from None
    return scenario_from_dict(doc)
