"""Seeded random scenarios for sweeps and property tests.

Draws are uniform on [0, 1] with rejection guardrails that keep every
analysis mode well defined and the comparisons numerically meaningful:
scenarios are redrawn until P(R=1|E=1) and every stratum weight clear
1e-3, mediator conditionals stay inside [1e-3, 1 - 1e-3] (so collapsed
M-margins never vanish), and P(E=1) stays inside the same band where an
exposure table participates.  Tiny denominators would turn float dust
into large relative gaps between methods without saying anything about
either; the check command states this exclusion in its output.
"""

from __future__ import annotations

import random

from .observables import chain_response
from .scenario import Scenario, Structure

MIN_MASS = 1e-3

_MAX_ATTEMPTS = 10_000


def random_scenario(rng: random.Random, structure: Structure, max_strata: int = 3) -> Scenario:
    """One valid scenario of the given structure; deterministic in rng state."""
    for _ in range(_MAX_ATTEMPTS):
        scenario = _draw(rng, structure, max_strata)
        if scenario is not None:
            return scenario
    raise RuntimeError(f"no acceptable {structure.value} scenario in {_MAX_ATTEMPTS} draws")


def _interior(rng: random.Random) -> float:
    value = rng.random()
    if not MIN_MASS <= value <= 1.0 - MIN_MASS:
        return -1.0
    return value


def _draw(rng: random.Random, structure: Structure, max_strata: int) -> Scenario | None:
    """One candidate, or None once a guardrail rejects it: S where present, then M, then R."""
    strata, weights = 1, [1.0]  # without S, one stratum of weight 1
    exposure = prior = None
    if structure.has_covariate:
        strata = rng.randint(2, max_strata)
        raw = [rng.random() for _ in range(strata)]
        total = sum(raw)
        if total <= 0.0:
            return None
        prior = tuple(w / total for w in raw)
        if min(prior) < MIN_MASS:
            return None
        exposure = tuple(rng.random() for _ in range(strata))
        if any(not MIN_MASS <= e <= 1.0 - MIN_MASS for e in exposure):
            return None
        p_e1 = sum(p * e for p, e in zip(prior, exposure))
        if not MIN_MASS <= p_e1 <= 1.0 - MIN_MASS:
            return None
        weights = [p * e / p_e1 for p, e in zip(prior, exposure)]
        if min(weights) < MIN_MASS:
            return None

    mediator = None
    if structure.has_mediator:
        pairs = []
        for _ in range(strata):
            m0, m1 = _interior(rng), _interior(rng)
            if m0 < 0.0 or m1 < 0.0:
                return None
            pairs.append((m0, m1))
        mediator = tuple(pairs)

    response = tuple((rng.random(), rng.random()) for _ in range(strata))
    if mediator is None:
        rows1 = [pair[1] for pair in response]
    else:
        rows1 = [chain_response(m_pair, r_pair, 1) for m_pair, r_pair in zip(mediator, response)]
    if sum(w * r1 for w, r1 in zip(weights, rows1)) < MIN_MASS:
        return None
    return Scenario(structure, response, mediator, exposure, prior)
