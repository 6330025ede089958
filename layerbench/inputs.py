"""Seeded inputs for the workloads, and the benchmark's own estimate.

Everything here is a pure function of the seed.  Counts cells are drawn
at least 1, so no conditioning cell is empty; drawn scenarios keep stratum
weights and exposures away from 0 and 1.
"""

from __future__ import annotations

import csv
import itertools
import json
import random

VARIABLE_ORDER = ("E", "M", "R", "S")


def counts_table(rng: random.Random, strata: int) -> dict[tuple[int, ...], int]:
    """mediator_covariate counts over (E, M, R, S), every cell in [5, 60]."""
    return {
        (e, m, r, s): rng.randint(5, 60)
        for e in (0, 1)
        for m in (0, 1)
        for r in (0, 1)
        for s in range(strata)
    }


def counts_csv(variables: tuple[str, ...], counts: dict[tuple[int, ...], int]) -> str:
    lines = [",".join(variables) + ",count"]
    lines += [",".join(map(str, a)) + f",{c}" for a, c in sorted(counts.items())]
    return "\n".join(lines) + "\n"


def read_counts(path) -> tuple[tuple[str, ...], dict[tuple[int, ...], int]]:
    """A counts CSV as (variables, {assignment: count}); no validation."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    variables = tuple(h.strip() for h in rows[0][:-1])
    return variables, {tuple(int(f) for f in row[:-1]): int(row[-1]) for row in rows[1:]}


def expected_estimate(variables: tuple[str, ...], counts: dict[tuple[int, ...], int]) -> dict:
    """The MLE scenario, in the CLI's JSON form, from one pass over the cells.

    Every margin is summed once; each conditional is then the exact ratio of
    two integer totals, so it must equal the program's estimate bit for bit.
    """
    margins: dict[tuple[tuple[str, int], ...], int] = {}
    for assignment, count in counts.items():
        pairs = tuple(zip(variables, assignment))
        for size in range(len(pairs) + 1):
            for key in itertools.combinations(pairs, size):
                margins[key] = margins.get(key, 0) + count

    def n(**condition: int) -> int:
        return margins[tuple((v, condition[v]) for v in VARIABLE_ORDER if v in condition)]

    def ratio(var: str, **condition: int) -> float:
        return n(**{var: 1}, **condition) / n(**condition)

    total = n()
    cause = "M" if "M" in variables else "E"
    if "S" not in variables:
        doc: dict = {"structure": "mediator" if "M" in variables else "basic", "exposure": n(E=1) / total}
        if "M" in variables:
            doc["mediator"] = {f"E={e}": ratio("M", E=e) for e in (0, 1)}
        doc["response"] = {f"{cause}={v}": ratio("R", **{cause: v}) for v in (0, 1)}
        return doc
    strata = range(max(a[variables.index("S")] for a in counts) + 1)
    doc = {
        "structure": "mediator_covariate" if "M" in variables else "covariate",
        "covariate_prior": [n(S=s) / total for s in strata],
        "exposure": {f"S={s}": ratio("E", S=s) for s in strata},
    }
    if "M" in variables:
        doc["mediator"] = {f"E={e},S={s}": ratio("M", E=e, S=s) for e in (0, 1) for s in strata}
    doc["response"] = {
        f"{cause}={v},S={s}": ratio("R", **{cause: v}, S=s) for v in (0, 1) for s in strata
    }
    return doc


def stratified_scenario(rng: random.Random, strata: int) -> dict:
    """A mediator_covariate scenario in JSON form, drawn directly with K strata.

    Raw stratum weights lie in [0.5, 1.5] before normalising, exposures in
    [0.1, 0.9] and the other conditionals in [0.05, 0.95].
    """
    raw = [rng.uniform(0.5, 1.5) for _ in range(strata)]
    total = sum(raw)
    return {
        "structure": "mediator_covariate",
        "covariate_prior": [w / total for w in raw],
        "exposure": {f"S={s}": rng.uniform(0.1, 0.9) for s in range(strata)},
        "mediator": {f"E={e},S={s}": rng.uniform(0.05, 0.95) for e in (0, 1) for s in range(strata)},
        "response": {f"M={m},S={s}": rng.uniform(0.05, 0.95) for m in (0, 1) for s in range(strata)},
    }


def sweep_pool(rng: random.Random, size: int, max_strata: int) -> list[str]:
    """Scenario JSON texts cycling through the four structures."""
    from causabound.randomgen import random_scenario
    from causabound.scenario import Structure, scenario_to_dict

    structures = list(Structure)
    return [
        json.dumps(scenario_to_dict(random_scenario(rng, structures[i % len(structures)], max_strata)))
        for i in range(size)
    ]
