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
from collections.abc import Callable, Iterator
from typing import NamedTuple

from .errors import EmptyConditioningCellError, ScenarioFormatError
from .scenario import VARIABLE_ORDER, Scenario, Structure, condition_key, decimal_int


class _TableFields(NamedTuple):
    variables: tuple[str, ...]
    levels: tuple[int, ...]
    cells: tuple[tuple[tuple[int, ...], int], ...]


def _in_product_order(levels: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every assignment below `levels` in `itertools.product` order; unlike it, never holds a level's values."""
    if not levels:
        yield ()
    elif levels[-1] > 0:  # an empty level empties the product at once, however large the others
        for head in _in_product_order(levels[:-1]):
            for last in range(levels[-1]):
                yield (*head, last)


class ContingencyTable(_TableFields):
    """Complete integer counts over `variables` (canonical E, M, R, S order).

    The variables include E and R, so they are exactly one structure's
    `Structure.variables`.  `levels` gives the number of values per
    variable: 2 for E, M, R and K >= 2 for S.  `cells` pairs every
    assignment (same variable order) with its count, sorted by assignment;
    coverage is total, duplicates are impossible, at least one count is
    positive, and `_replace` checks it all.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs) -> ContingencyTable:
        self = super().__new__(cls, *args, **kwargs)
        if self.variables != tuple(v for v in VARIABLE_ORDER if v in self.variables):
            raise ScenarioFormatError(f"variables {self.variables} not in canonical order")
        if not {"E", "R"} <= set(self.variables):
            raise ScenarioFormatError("counts must include both E and R")
        assignments = [a for a, _ in self.cells]
        unmatched = set(assignments)
        # each step removes a cell or stops, so the walk is no longer than the cells
        for expected in _in_product_order(self.levels):
            if expected not in unmatched:
                raise ScenarioFormatError(f"missing count for assignment {dict(zip(self.variables, expected))}")
            unmatched.remove(expected)
        if unmatched:
            raise ScenarioFormatError(f"assignments out of range: {sorted(unmatched)}")
        if assignments != sorted(set(assignments)):
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
        perm = [variables.index(v) for v in order]
        reordered = {tuple(a[i] for i in perm): c for a, c in counts.items()}
        levels = [2] * len(order)
        if "S" in order:  # last in VARIABLE_ORDER, and the only variable whose levels are read off the data
            levels[-1] = max((a[-1] for a in reordered), default=-1) + 1
            if levels[-1] < 2:
                raise ScenarioFormatError("covariate S needs at least 2 observed levels")
        return cls(order, tuple(levels), tuple(sorted(reordered.items())))

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


def read_counts_csv(path: str) -> ContingencyTable:
    """Parse a counts CSV: variable columns then a final `count` column."""
    # utf-8-sig: spreadsheets save "CSV UTF-8" with a byte-order mark
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
        cell = condition_key(sorted(condition.items()))
        raise EmptyConditioningCellError(f"no observations with {cell}; P({var}=1|{cell}) is 0/0")
    return count_where(**{var: 1, **condition}) / denominator


def estimate_from_counts(table: ContingencyTable) -> Scenario:
    """Point-estimate a Scenario from counts.

    The structure is the one whose `variables` are the table's: M and S
    are present in the scenario exactly when the table has them.  Every
    conditional is the ratio of two integer margins, all summed in one pass
    over the cells; the exposure table (the marginal P(E=1) when S is
    absent) and the covariate prior come along for free, so the result
    fully determines a joint law.
    """
    structure = next(s for s in Structure if s.variables == table.variables)
    count = _margin_counter(table)
    total = count()
    # one condition per stratum; without S the single stratum conditions on nothing
    strata = [{"S": s} for s in range(table.s_levels)] if structure.has_covariate else [{}]

    prior = tuple(count(**cond) / total for cond in strata) if structure.has_covariate else None
    exposure = tuple(_conditional(count, "E", cond) for cond in strata)
    tables = {
        name: tuple(
            (_conditional(count, var, {cond_var: 0, **cond}), _conditional(count, var, {cond_var: 1, **cond}))
            for cond in strata
        )
        for name, var, cond_var in structure.tables
    }
    return Scenario(structure, exposure=exposure, covariate_prior=prior, **tables)

