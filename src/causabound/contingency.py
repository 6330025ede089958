"""Contingency counts and maximum-likelihood scenario estimation.

A table is a complete cross-classification of a study population over a
subset of the variables {E, M, R, S}: one nonnegative integer count per
assignment.  Estimation divides cell counts by conditioning-cell totals,
which is the MLE of each conditional table under the structure's
factorization; for mediator structures the R|M table pools over E, as the
missing E -> R edge dictates.

Estimation makes one pass over the cells, summing every marginal count at
once, so it costs O(cells): 16 margin updates per cell at most.  Each
conditional is then the exact ratio of two integer margins, so the
estimate does not depend on the order the counts were summed in.
"""

from __future__ import annotations

import csv
import itertools
from collections.abc import Callable
from typing import NamedTuple

from .errors import EmptyConditioningCellError, ScenarioFormatError
from .scenario import Scenario, Structure, decimal_int

VARIABLE_ORDER = ("E", "M", "R", "S")

_STRUCTURE_BY_VARIABLES = {
    ("E", "R"): Structure.BASIC,
    ("E", "M", "R"): Structure.MEDIATOR,
    ("E", "R", "S"): Structure.COVARIATE,
    ("E", "M", "R", "S"): Structure.MEDIATOR_COVARIATE,
}


class _TableFields(NamedTuple):
    variables: tuple[str, ...]
    levels: tuple[int, ...]
    cells: tuple[tuple[tuple[int, ...], int], ...]


class ContingencyTable(_TableFields):
    """Complete integer counts over `variables` (canonical E, M, R, S order).

    `levels` gives the number of values per variable: 2 for E, M, R and
    K >= 2 for S.  `cells` pairs every assignment (same variable order) with
    its count, sorted by assignment; coverage is total, duplicates are
    impossible, at least one count is positive, and `_replace` checks it all.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs) -> ContingencyTable:
        self = super().__new__(cls, *args, **kwargs)
        if self.variables != tuple(v for v in VARIABLE_ORDER if v in self.variables):
            raise ScenarioFormatError(f"variables {self.variables} not in canonical order")
        expected = tuple(itertools.product(*(range(k) for k in self.levels)))
        if tuple(a for a, _ in self.cells) != expected:
            raise ScenarioFormatError("cells must cover every assignment exactly once, sorted")
        for assignment, count in self.cells:
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise ScenarioFormatError(f"count for {assignment} must be a nonnegative integer")
        if self.total == 0:
            raise ScenarioFormatError("table is empty: all counts are zero")
        return self

    @classmethod
    def from_cells(cls, variables: tuple[str, ...], counts: dict[tuple[int, ...], int]) -> ContingencyTable:
        order = tuple(v for v in VARIABLE_ORDER if v in variables)
        if set(variables) != set(order) or len(variables) != len(order):
            raise ScenarioFormatError(f"variables must be a subset of {VARIABLE_ORDER} without repeats")
        if not {"E", "R"} <= set(variables):
            raise ScenarioFormatError("counts must include both E and R")
        perm = [variables.index(v) for v in order]
        reordered = {tuple(a[i] for i in perm): c for a, c in counts.items()}
        levels = []
        for i, var in enumerate(order):
            values = {a[i] for a in reordered}
            k = max(values) + 1 if values else 0
            if var != "S":
                k = 2
            elif k < 2:
                raise ScenarioFormatError("covariate S needs at least 2 observed levels")
            levels.append(k)
        full = []
        for assignment in itertools.product(*(range(k) for k in levels)):
            if assignment not in reordered:
                raise ScenarioFormatError(f"missing count for assignment {dict(zip(order, assignment))}")
            full.append((assignment, reordered[assignment]))
        if len(reordered) != len(full):
            extra = set(reordered) - {a for a, _ in full}
            raise ScenarioFormatError(f"assignments out of range: {sorted(extra)}")
        return cls(order, tuple(levels), tuple(full))

    @property
    def total(self) -> int:
        return sum(c for _, c in self.cells)

    @property
    def s_levels(self) -> int:
        return self.levels[self.variables.index("S")] if "S" in self.variables else 1

    def count_where(self, **condition: int) -> int:
        """Total count over cells matching the given variable values."""
        wanted = [(self.variables.index(v), val) for v, val in condition.items()]
        return sum(c for a, c in self.cells if all(a[i] == val for i, val in wanted))


def structure_for_variables(variables: tuple[str, ...]) -> Structure:
    """The structure whose variable set matches the table exactly."""
    key = tuple(v for v in VARIABLE_ORDER if v in variables)
    try:
        return _STRUCTURE_BY_VARIABLES[key]
    except KeyError:
        raise ScenarioFormatError(
            f"no structure observes exactly {sorted(set(variables), key=str)}; need E and R, optionally M and/or S"
        ) from None


def read_counts_csv(path: str) -> ContingencyTable:
    """Parse a counts CSV: variable columns then a final `count` column."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ScenarioFormatError(f"not a readable counts CSV: {exc}") from None
    rows = [row for row in rows if row and any(field.strip() for field in row)]
    if not rows:
        raise ScenarioFormatError("counts file is empty")
    header = [h.strip() for h in rows[0]]
    if len(header) < 2 or header[-1] != "count":
        raise ScenarioFormatError("header must name the variables and end with 'count'")
    variables = tuple(header[:-1])
    unknown = set(variables) - set(VARIABLE_ORDER)
    if unknown:
        raise ScenarioFormatError(f"unknown variables in header: {sorted(unknown)}")
    counts: dict[tuple[int, ...], int] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ScenarioFormatError(f"line {lineno}: expected {len(header)} fields")
        try:
            values = tuple(map(decimal_int, row[:-1]))
            count = decimal_int(row[-1])
        except ValueError:
            raise ScenarioFormatError(f"line {lineno}: entries must be integers") from None
        for var, val in zip(variables, values):
            if var != "S" and val not in (0, 1):
                raise ScenarioFormatError(f"line {lineno}: {var} must be 0 or 1")
            if val < 0:
                raise ScenarioFormatError(f"line {lineno}: {var} must be nonnegative")
        if count < 0:
            raise ScenarioFormatError(f"line {lineno}: negative count")
        if values in counts:
            raise ScenarioFormatError(f"line {lineno}: duplicate assignment {dict(zip(variables, values))}")
        counts[values] = count
    return ContingencyTable.from_cells(variables, counts)


def _margin_counter(table: ContingencyTable) -> Callable[..., int]:
    """`count_where` answered from margins summed in one pass over the cells.

    A margin is keyed by an assignment with None for every variable summed
    out, so each cell adds its count to 2^len(variables) margins.
    """
    margins: dict[tuple[int | None, ...], int] = {}
    for assignment, count in table.cells:
        for key in itertools.product(*((value, None) for value in assignment)):
            margins[key] = margins.get(key, 0) + count

    def count_where(**condition: int) -> int:
        return margins[tuple(condition.get(v) for v in table.variables)]

    return count_where


def _conditional(count_where: Callable[..., int], var: str, condition: dict[str, int]) -> float:
    """MLE of P(var=1 | condition) from cell counts; 0/0 is an error."""
    denominator = count_where(**condition)
    if denominator == 0:
        cell = ",".join(f"{v}={condition[v]}" for v in sorted(condition))
        raise EmptyConditioningCellError(f"no observations with {cell}; P({var}=1|{cell}) is 0/0")
    return count_where(**{var: 1, **condition}) / denominator


def estimate_from_counts(table: ContingencyTable, structure: Structure) -> Scenario:
    """Point-estimate a Scenario of the given structure from counts.

    The table must cover exactly the structure's variables.  Every
    conditional is the ratio of two integer margins, all summed in one pass
    over the cells; the exposure table (the marginal P(E=1) when S is
    absent) and the covariate prior come along for free, so the result
    fully determines a joint law to regenerate expected counts from.
    """
    if table.variables != structure.variables:
        raise ScenarioFormatError(
            f"counts over {sorted(table.variables)} cannot estimate a {structure.value} scenario"
            f" (needs {sorted(structure.variables)})"
        )
    count = _margin_counter(table)
    total = count()
    # one condition per stratum; without S the single stratum conditions on nothing
    strata = [{"S": s} for s in range(table.s_levels)] if structure.has_covariate else [{}]

    def pairs(var: str, cond_var: str) -> tuple[tuple[float, float], ...]:
        return tuple(
            (_conditional(count, var, {cond_var: 0, **cond}), _conditional(count, var, {cond_var: 1, **cond}))
            for cond in strata
        )

    prior = tuple(count(**cond) / total for cond in strata) if structure.has_covariate else None
    exposure = tuple(_conditional(count, "E", cond) for cond in strata)
    mediator = pairs("M", "E") if structure.has_mediator else None
    response = pairs("R", "M" if structure.has_mediator else "E")
    return Scenario(structure, response, mediator, exposure, prior)


def expected_counts(scenario: Scenario, total: int) -> dict[tuple[int, ...], float]:
    """Expected cell counts under the scenario's factorized law.

    Assignments use the structure's canonical variable order.  Needs the
    exposure information (estimation always provides it).  Counts are
    real-valued: the fitted law of a mediator structure can place
    fractional mass on cells whose data violated the missing E -> R edge.
    """
    st = scenario.structure
    if scenario.exposure is None:
        raise ValueError("exposure information required to reconstruct joint counts")
    out: dict[tuple[int, ...], float] = {}
    # without S the single stratum has weight 1 and no S coordinate
    prior = scenario.covariate_prior or (1.0,)
    for s, (p_s, p_e1) in enumerate(zip(prior, scenario.exposure)):
        stratum = (s,) if st.has_covariate else ()
        for e in (0, 1):
            p_e = p_e1 if e == 1 else 1.0 - p_e1
            if st.has_mediator:
                m1 = scenario.mediator[s][e]  # type: ignore[index]
                for m in (0, 1):
                    p_m = m1 if m == 1 else 1.0 - m1
                    r1 = scenario.response[s][m]
                    for r in (0, 1):
                        p_r = r1 if r == 1 else 1.0 - r1
                        out[(e, m, r, *stratum)] = total * p_s * p_e * p_m * p_r
            else:
                r1 = scenario.response[s][e]
                for r in (0, 1):
                    p_r = r1 if r == 1 else 1.0 - r1
                    out[(e, r, *stratum)] = total * p_s * p_e * p_r
    return out
