"""Observable summaries and analysis-mode reductions.

The bounds formulas do not consume a Scenario directly; they consume an
ObservableSet, the handful of per-stratum functionals the closed form is
written in.  Deriving one is mostly bookkeeping, with three pieces of real
arithmetic:

Chain marginals.  Mediator structures have no direct E -> R edge, so
    P(R=1|E=e) = P(R=1|M=1) P(M=1|E=e) + P(R=1|M=0) P(M=0|E=e)
(per stratum when S is present).  For a genuine mediator scenario this IS
the marginal; for a collapsed view of a richer scenario it is the value a
mediator-only analyst would reconstruct, which need not match the joint
law.  A note names both values where they differ.

Covariate weights.  Stratum weights are posteriors by Bayes' rule,
    P(S=s|E=e) = P(S=s) P(E=e|S=s) / P(E=e),
with P(E=e) = sum_s P(S=s) P(E=e|S=s) for either e: the weights are their
joint terms over the sum of those terms, so they add up to 1.  A zero
P(E=e) makes the weights, and everything conditioned on E=e, undefined; so
does a subnormal one, whose products have underflowed.  Without S the one
stratum has weight 1.  One Bayes function, `_posterior`, gives both these
weights (through `stratum_posterior`, which the oracle reads too) and
P(S=s|M=m).  Every float total is `ordered_sum`'s left-to-right one.

Collapses.  Ignoring a variable means marginalizing it out of the tables
the analyst keeps: dropping M replaces the mediator machinery with the
chain marginals; dropping S mixes column x of each table conditioned on X
over P(S=s|X=x): the posterior weights above for X = E, and P(S=s|M=m) from
the joint law for X = M.  `reduce_scenario` drops M, then S, so ignoring
both is ignoring the mediator and then the covariate.  Each collapse
returns an ordinary Scenario of the smaller structure, so every analysis
mode reuses the same downstream derivations, and the tolerance rule for an
entry that rounding left just outside [0, 1].  The literals are ints, so a
`Fraction` scenario collapses exactly.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from typing import NamedTuple

from .errors import InapplicableModeError, UndefinedConditionalError
from .scenario import AnalysisMode, Pair, Scenario, Structure, ordered_sum

Quad = tuple[float, float, float, float]


def chain_response(mediator: Pair, response: Pair, exposure_value: int) -> float:
    """P(R=1|E=e) routed through the mediator: the Markov chain marginal.

    `mediator` is one stratum's (P(M=1|E=0), P(M=1|E=1)), `response` its
    (P(R=1|M=0), P(R=1|M=1)).
    """
    m1 = mediator[exposure_value]
    return response[1] * m1 + response[0] * (1 - m1)


class ObservableSet(NamedTuple):
    """Inputs to the closed-form bounds, plus provenance notes.

    The audit labels each interval, so no mode or structure is kept.
    Every set is stratified: a structure without a covariate is one stratum
    of weight 1.  `stratum_weights` are P(S=s|E=1), `stratum_response` the
    rows (P(R=1|E=0,S=s), P(R=1|E=1,S=s)), and `stratum_mediator_summary`
    the per-stratum mediator conditionals (P(M=1|E=0), P(M=1|E=1),
    P(R=1|M=0), P(R=1|M=1)), present exactly when a mediator is.
    `p_r1_given_e1` and `p_r1_given_e0` are the values the formulas
    consume: chain marginals whenever a mediator is in play.  When those
    differ from the joint-law marginals of the original scenario, a note
    names both.

    `risk_ratio` is +inf when P(R=1|E=0) = 0 < P(R=1|E=1), and None when
    it is not defined at all (0/0, or an unavailable marginal).
    """

    p_r1_given_e1: float
    p_r1_given_e0: float | None
    risk_ratio: float | None
    stratum_weights: tuple[float, ...]
    stratum_response: tuple[Pair, ...]
    stratum_mediator_summary: tuple[Quad, ...] | None = None
    notes: tuple[str, ...] = ()


def _risk_ratio(p1: float, p0: float | None) -> tuple[float | None, tuple[str, ...]]:
    if p0 is None:
        return None, ()
    if p0 > 0.0:
        return p1 / p0, ()
    if p1 > 0.0:
        return float("inf"), ("P(R=1|E=0) = 0: risk ratio taken as +infinity",)
    return None, ("P(R=1|E=1) = P(R=1|E=0) = 0: risk ratio undefined",)


def _usable(p: float, event: str, consequence: str) -> float:
    """Return a Bayes denominator as is; raise below the floor of `bounds.require_denominator`."""
    if p <= 0.0:
        raise UndefinedConditionalError(f"{event} = 0: {consequence}")
    if p < sys.float_info.min:
        raise UndefinedConditionalError(f"{event} = {p!r} is subnormal: rounding swamps the weights, so {consequence}")
    return p


def _posterior(scenario: Scenario, p_x1: Iterable[float], x: int, event: str, consequence: str) -> tuple[float, ...]:
    """P(S=s|X=x) by Bayes' rule from each stratum's P(X=1|S=s) in `p_x1`; `_usable` checks the sum P(X=x)."""
    strata = zip(scenario.covariate_prior, p_x1)  # type: ignore[arg-type]
    joint = [prior * (p if x == 1 else 1 - p) for prior, p in strata]
    total = _usable(ordered_sum(joint), event, consequence)
    return tuple(j / total for j in joint)


def stratum_posterior(scenario: Scenario, e: int) -> tuple[float, ...]:
    """P(S=s|E=e) by Bayes' rule, (1,) when S is absent; raises when P(E=e) is 0 or subnormal.

    Both the closed form and the oracle weigh their strata with this.
    """
    if not scenario.structure.has_covariate:
        return (1,)
    consequence = f"nothing is conditionally defined given E={e}"
    return _posterior(scenario, scenario.exposure, e, f"P(E={e})", consequence)  # type: ignore[arg-type]


def _mediator_posterior(scenario: Scenario, m: int) -> tuple[float, ...]:
    """P(S=s|M=m) from the joint law of a mediator_covariate scenario."""
    strata = zip(scenario.exposure, scenario.mediator)  # type: ignore[arg-type]
    p_m1 = [expo * m1 + (1 - expo) * m0 for expo, (m0, m1) in strata]
    return _posterior(scenario, p_m1, m, f"P(M={m})", f"the collapsed response table P(R=1|M={m}) is undefined")


def response_rows(scenario: Scenario, e: int) -> tuple[float, ...]:
    """P(R=1|E=e,S=s) per stratum: the chain marginal through M where a mediator is."""
    if not scenario.structure.has_mediator:
        return tuple(pair[e] for pair in scenario.response)
    strata = zip(scenario.mediator, scenario.response)  # type: ignore[arg-type]
    return tuple(chain_response(m_pair, r_pair, e) for m_pair, r_pair in strata)


def _mix(weights: tuple[float, ...], values: tuple[float, ...]) -> float:
    """sum_s weights[s] values[s], added up in stratum order."""
    return ordered_sum(weight * value for weight, value in zip(weights, values))


def true_marginal_response(scenario: Scenario, e: int) -> float:
    """P(R=1|E=e) under the joint law, whatever the structure.

    Strata mix with the posterior weights (so with S present it needs
    P(E=e) > 0); for mediator structures each stratum's value is the chain
    marginal, as the model has no other path.
    """
    return _mix(stratum_posterior(scenario, e), response_rows(scenario, e))


def _collapse_covariate(scenario: Scenario) -> Scenario:
    """Marginalize S out of the tables a covariate-blind analyst keeps; the structure loses S."""
    posterior = {"E": stratum_posterior, "M": _mediator_posterior}
    tables: dict[str, tuple[Pair, ...]] = {}
    for name, _, given in scenario.structure.tables:
        columns = enumerate(zip(*getattr(scenario, name)))
        tables[name] = (tuple(_mix(posterior[given](scenario, x), column) for x, column in columns),)
    structure = Structure.MEDIATOR if scenario.structure.has_mediator else Structure.BASIC
    p_e1 = _mix(scenario.covariate_prior, scenario.exposure)  # type: ignore[arg-type]
    return Scenario(structure, exposure=(p_e1,), **tables)


def _collapse_mediator(scenario: Scenario) -> Scenario:
    """Replace the mediator tables by the chain marginals they induce, stratum by stratum."""
    rows = [response_rows(scenario, e) for e in (0, 1)]
    structure = Structure.COVARIATE if scenario.structure.has_covariate else Structure.BASIC
    return Scenario(structure, tuple(zip(*rows)), None, scenario.exposure, scenario.covariate_prior)


def reduce_scenario(scenario: Scenario, mode: AnalysisMode) -> Scenario:
    """The scenario as seen by an analyst ignoring what `mode` ignores.

    Only reductions the structure supports are allowed: a mode may drop M
    or S only where they exist.  A mode drops M, then S, so ignoring both
    is ignoring the mediator and then the covariate.  Every table a
    collapse builds is stored by Scenario.  Where the Bayes weights of the
    covariate collapse lose so much to rounding that a conditional they mix
    lands beyond the tolerance outside [0, 1], the collapse is undefined.
    """
    st = scenario.structure
    if mode.drops_mediator and not st.has_mediator:
        raise InapplicableModeError(f"mode {mode.value} drops M, but structure {st.value} has no mediator")
    if mode.drops_covariate and not st.has_covariate:
        raise InapplicableModeError(f"mode {mode.value} drops S, but structure {st.value} has no covariate")
    if mode.drops_mediator:
        scenario = _collapse_mediator(scenario)
    if not mode.drops_covariate:
        return scenario
    reduced = _collapse_covariate(scenario)
    for pair in reduced.response + (reduced.mediator or ()):
        if not all(0.0 <= p <= 1.0 for p in pair):
            raise UndefinedConditionalError(f"rounding swamps the Bayes weights of the {mode.value} collapse: {pair!r}")
    return reduced


def observe(scenario: Scenario, reduced: Scenario) -> ObservableSet:
    """Summarize what the formulas consume from `reduced`, which is `reduce_scenario(scenario, mode)`.

    `reduce_scenario` returns `scenario` itself in full mode, so `reduced is
    not scenario` exactly when something was collapsed.  When a
    mediator-form view of a collapsed scenario reconstructs marginals
    through the chain that differ from the joint law of `scenario` (they
    can, once a covariate has been mixed away), a note names both values.
    """
    st = reduced.structure
    weights = stratum_posterior(reduced, 1)
    notes: tuple[str, ...] = ()
    rows0, rows1 = response_rows(reduced, 0), response_rows(reduced, 1)
    quads = None
    if st.has_mediator:
        quads = tuple((*m, *r) for m, r in zip(reduced.mediator, reduced.response))  # type: ignore[arg-type]
        where = "per-stratum P(R=1|E=e,S=s)" if st.has_covariate else "P(R=1|E=e)"
        notes += (f"{where} is the chain marginal through M",)
    p1 = _mix(weights, rows1)
    try:
        p0 = _mix(stratum_posterior(reduced, 0), rows0)
    except UndefinedConditionalError as exc:
        p0 = None
        # `_usable` opens its message with the value: "P(E=0) = 0" or "P(E=0) = 5e-324 is subnormal"
        notes += (f"{str(exc).partition(':')[0]}: marginal P(R=1|E=0) unavailable",)
    rr, rr_notes = _risk_ratio(p1, p0)
    notes += rr_notes
    if reduced is not scenario and st is Structure.MEDIATOR:
        # only ignore-covariate on mediator_covariate lands here: p0 is set, as
        # the reduced view has no covariate, and the collapse has already
        # required P(E=0) and P(E=1) of `scenario` to be usable
        truth1 = true_marginal_response(scenario, 1)
        truth0 = true_marginal_response(scenario, 0)
        if abs(p1 - truth1) > 1e-12 or abs(p0 - truth0) > 1e-12:  # type: ignore[operator]
            notes += (
                "chain-reconstructed marginals (consumed by the formulas) differ from the joint law: "
                f"P(R=1|E=1) {float(p1):.12g} vs {float(truth1):.12g}, "
                f"P(R=1|E=0) {float(p0):.12g} vs {float(truth0):.12g}",
            )
    return ObservableSet(p1, p0, rr, weights, tuple(zip(rows0, rows1)), quads, notes)


def derive_observables(scenario: Scenario, mode: AnalysisMode = AnalysisMode.FULL) -> ObservableSet:
    """Reduce per `mode`, then summarize what the formulas will consume."""
    return observe(scenario, reduce_scenario(scenario, mode))
