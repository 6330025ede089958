"""Closed-form interval bounds on the probability of causation.

For an exposed responder, the probability of causation is

    PC = P(R(0)=0, R(1)=1 | E=1, R=1),

the chance the response would have been absent without the exposure.  The
joint of (R(0), R(1)) is not identified, so PC is bounded, not estimated.
Every structure is read as K strata s with weights w_s = P(S=s|E=1) and
rows r_es = P(R=1|E=e,S=s); a structure without a covariate is the single
stratum K = 1, w = 1.  With

    r1    = sum_s w_s r_1s                        = P(R=1|E=1),
    Delta = sum_s w_s max{0, r_1s - r_0s},

the bounds are

    Delta / r1  <=  PC  <=  min{1, sum_s w_s N_s / r1}.

Under complete mediation E -> M -> R the rows r_es are the chain marginals
through M, and with m_e = P(M=1|E=e) and q_m = P(R=1|M=m) in stratum s,

    N_s = | (1-m0)(1-q0) + (1-m1)(1-q1)   if m0 + m1 >= 1, q0 + q1 >= 1
          | m1(1-q0) + m0(1-q1)           if m0 + m1 <  1, q0 + q1 >= 1
          | (1-m0)q1 + (1-m1)q0           if m0 + m1 >= 1, q0 + q1 <  1
          | m1 q1 + m0 q0                 if m0 + m1 <  1, q0 + q1 <  1.

This is the case split on a = 1-m0 <= b = m1 and c = 1-q0 <= d = q1 of
Dawid, Murtas & Musio, written on the conditionals themselves: each
branch is two products of x or 1-x, so no input is complemented twice and
a rare response (q ~ 1e-300) keeps its relative precision.  At a tie
(m0 + m1 = 1 or q0 + q1 = 1) the adjacent branches coincide, so either
gives the same N.

A stratum without a mediator is read as M = E (m0 = 0, m1 = 1, q_e = r_es),
where N_s = min{r_1s, 1 - r_0s}; at K = 1 this is the basic family
max{0, 1 - 1/RR} <= PC <= min{1, P(R=0|E=0) / P(R=1|E=1)}, RR = r1/r0.
The literals are ints, so `Fraction` rows give `Fraction` endpoints.

Every bound is sharp for its information set: richer information can only
shrink the interval, which the audit machinery makes observable.  An
interval here is endpoints and notes only; `audit.AuditEntry` labels it
with the analysis mode and the method that produced it.
"""

from __future__ import annotations

import enum
import sys
from typing import NamedTuple

from .errors import UndefinedPcError
from .observables import ObservableSet, Quad
from .scenario import ordered_sum


class Method(str, enum.Enum):
    """How an interval was produced: this closed form, or the oracle's corner search; declared in report order."""

    CLOSED_FORM = "closed"
    ORACLE = "oracle"


class _IntervalFields(NamedTuple):
    lower: float
    upper: float
    notes: tuple[str, ...] = ()


class PcInterval(_IntervalFields):
    """A closed interval certain to contain PC, with notes on how it arose; `_replace` checks it too.

    Which analysis mode and method produced it is the audit's to record
    (`audit.AuditEntry`), not the interval's.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs) -> PcInterval:
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(f"invalid interval [{self.lower!r}, {self.upper!r}]")
        return self

    @property
    def width(self) -> float:
        return self.upper - self.lower


def finish_interval(lower: float, upper: float, notes: tuple[str, ...]) -> PcInterval:
    """Clamp raw endpoint values into an interval inside [0, 1].

    Every method ends here.  The two ends are exact algebraically but come
    from different float expressions, so at degenerate inputs (r1 == 1, or
    sum_s w_s N_s == r1) they can invert or leave [0, 1] by an ulp; a corner
    extremum over the oracle's boxes can overshoot 1 the same way.
    """
    zero = upper - upper  # of the endpoints' type, where 0.0 would make an exact interval float
    upper = min(zero + 1, max(zero, upper))
    lower = min(max(zero, lower), upper)
    return PcInterval(lower, upper, notes)


def require_denominator(r1: float) -> float:
    """Return P(R=1|E=1) as is; raise if it is zero or subnormal, where rounding swamps the quotient."""
    if r1 <= 0:
        raise UndefinedPcError("P(R=1|E=1) = 0: the event conditioned on never happens, PC is undefined")
    if r1 < sys.float_info.min:
        raise UndefinedPcError(f"P(R=1|E=1) = {r1!r} is subnormal: rounding swamps division, PC is undefined")
    return r1


def _mediation_cell(summary: Quad) -> float:
    m0, m1, q0, q1 = summary
    if m0 + m1 >= 1:
        if q0 + q1 >= 1:
            return (1 - m0) * (1 - q0) + (1 - m1) * (1 - q1)
        return (1 - m0) * q1 + (1 - m1) * q0
    if q0 + q1 >= 1:
        return m1 * (1 - q0) + m0 * (1 - q1)
    return m1 * q1 + m0 * q0


def pc_bounds(observed: ObservableSet) -> PcInterval:
    """Closed-form bounds: one weighted sum over the strata of `observed`."""
    r1 = require_denominator(observed.p_r1_given_e1)
    weights, rows = observed.stratum_weights, observed.stratum_response
    delta = ordered_sum(w * max(0, r1_s - r0_s) for w, (r0_s, r1_s) in zip(weights, rows))
    # without a mediator, M is E itself: P(M=1|E=0) = 0 and P(M=1|E=1) = 1
    summaries = observed.stratum_mediator_summary or [(0, 1, *row) for row in rows]
    upper = ordered_sum(w * _mediation_cell(summary) for w, summary in zip(weights, summaries))
    return finish_interval(delta / r1, upper / r1, observed.notes)
