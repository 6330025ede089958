"""Frechet limits for a pair of potential outcomes.

A binary variable V with potential versions V(0), V(1) has observable
margins p_e = P(V(e)=1) but an unobservable joint.  Writing
q = P(V(0)=1, V(1)=1), every joint consistent with the margins has

    max{0, p0 + p1 - 1}  <=  q  <=  min{p0, p1},

and every q in that interval is attainable.  The four joint cells are
affine in q, so their attainable ranges follow by evaluating at the two
ends.  This one fact powers both the oracle and the closed-form bounds.
"""

from __future__ import annotations

from typing import NamedTuple

from .scenario import _nearest_probability


class FrechetBox(NamedTuple):
    """Margins (p0, p1) with the induced range [q_min, q_max] for q."""

    p0: float
    p1: float
    q_min: float
    q_max: float

    def cell(self, v0: int, v1: int, q: float) -> float:
        """P(V(0)=v0, V(1)=v1) for a given joint parameter q."""
        if v0 == 1 and v1 == 1:
            return q
        if v0 == 1:
            return self.p0 - q
        if v1 == 1:
            return self.p1 - q
        return 1.0 - self.p0 - self.p1 + q

    def cell_range(self, v0: int, v1: int) -> tuple[float, float]:
        """Attainable range of the (v0, v1) cell over the whole box."""
        at_min = self.cell(v0, v1, self.q_min)
        at_max = self.cell(v0, v1, self.q_max)
        return (min(at_min, at_max), max(at_min, at_max))


def frechet_box(p0: float, p1: float) -> FrechetBox:
    """Build the box for margins p0 = P(V(0)=1), p1 = P(V(1)=1).

    Each margin is stored as a Scenario stores a table entry: a float within
    1e-9 outside [0, 1] becomes the nearest end, and any other value is kept
    as given (an int or Fraction stays one, and -0.0 stays -0.0).  A margin
    still outside [0, 1] is rejected.
    """
    p0, p1 = _nearest_probability(p0), _nearest_probability(p1)
    for name, p in (("p0", p0), ("p1", p1)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} = {p!r} is not a probability")
    q_max = min(p0, p1)
    # not p0 + p1 - 1, whose rounded sum can lose a tiny margin: 1 - max is
    # exact when max >= 1/2 (Sterbenz), and below 1/2 the limit is negative anyway
    q_min = q_max - (1 - max(p0, p1))
    # x - x is a zero of x's type, where max(0.0, x) would turn a Fraction into a float
    return FrechetBox(p0, p1, q_min if q_min > 0 else q_min - q_min, q_max)
