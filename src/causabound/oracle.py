"""Brute-force verification of the closed-form bounds.

The set of potential-outcome joints consistent with a scenario's margins
is a product of Frechet boxes (`FrechetBox`): one response box per
stratum, plus one mediator box per stratum where M is present.  The PC
numerator is, per stratum,

    single box:  r1 - qR
    two boxes:   (pm1 - qM)(pr1 - qR) + (pm0 - qM)(pr0 - qR)

summed with the stratum weights and divided by the fixed denominator
P(R=1|E=1).  Each stratum's term is affine in qR for fixed qM and affine
in qM for fixed qR, and throughout the feasible region it is nonincreasing
in both (q can never exceed either margin, so the bracket signs are
fixed), so the extrema over a box sit at corners.  Enumerating the at most
four corners per stratum is therefore exact, and strata decouple because
the objective is a weighted sum over variationally independent boxes.

The corner search ('oracle_bounds') returns a certificate carrying the
extremal vertex assignments; re-evaluating its objective at those
assignments reproduces the raw extrema exactly, since the same expressions
run in the same order.  The endpoints are those extrema after the clamp
into [0, 1] that every method ends with (`bounds.finish_interval`), so a
raw maximum of 1 + 1 ulp is reported as 1.  The grid scan
('grid_scan_bounds') checks the corner argument itself: it runs the corner
search (`_search`) on uniform grids that include the exact box ends, so it
can never beat the corner search, at any resolution.  The search, its
objective, its total (`ordered_sum`) and the step from totals to interval
(divide, clamp) are written once; what checks the formula itself is
agreement with the independently derived closed form.
The literals are ints, so a `Fraction` scenario gets an exact interval.
Both searches take the scenario an analysis mode has already reduced
(`observables.reduce_scenario`) and know nothing of the mode itself.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from itertools import product
from operator import attrgetter
from typing import NamedTuple

from .bounds import PcInterval, finish_interval, require_denominator
from .observables import _mix, response_rows, stratum_posterior
from .scenario import Scenario, _nearest_probability, ordered_sum


class FrechetBox(NamedTuple):
    """Margins (p0, p1) with the induced range [q_min, q_max] for q = P(V(0)=1, V(1)=1).

    A binary V with potential versions V(0), V(1) has observable margins
    p_e = P(V(e)=1) but an unobservable joint.  Every joint consistent with
    the margins has max{0, p0 + p1 - 1} <= q <= min{p0, p1}, and every q in
    that interval is attainable.  The four joint cells are affine in q, so
    their attainable ranges follow by evaluating at the two ends.
    """

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


class StratumBoxes(NamedTuple):
    """One stratum's search space: weight, response box, optional mediator box."""

    weight: float
    response: FrechetBox
    mediator: FrechetBox | None = None


class OracleCertificate(NamedTuple):
    """Extremal interval plus the vertex assignments that attain it.

    `argmin` / `argmax` hold one tuple per stratum: (qR,) for single-box
    strata, (qM, qR) for two-box strata.  `objective` re-evaluates any
    assignment, so a certificate can be checked independently of the
    search that produced it.
    """

    interval: PcInterval
    strata: tuple[StratumBoxes, ...]
    denominator: float
    argmin: tuple[tuple[float, ...], ...]
    argmax: tuple[tuple[float, ...], ...]

    def objective(self, assignment: tuple[tuple[float, ...], ...]) -> float:
        terms = (boxes.weight * _objective(boxes)(*qs) for boxes, qs in zip(self.strata, assignment))
        return ordered_sum(terms) / self.denominator


def _objective(boxes: StratumBoxes) -> Callable[..., float]:
    """The stratum's numerator term, a function of qR, or of (qM, qR) where M is present."""
    r0, r1 = boxes.response.p0, boxes.response.p1
    if boxes.mediator is None:
        return lambda q_r: r1 - q_r
    m0, m1 = boxes.mediator.p0, boxes.mediator.p1
    return lambda q_m, q_r: (m1 - q_m) * (r1 - q_r) + (m0 - q_m) * (r0 - q_r)


def _grid(resolution: int) -> Callable[[FrechetBox], list[float]]:
    """`resolution` evenly spaced points per box, both ends exact."""

    def axis(box: FrechetBox) -> list[float]:
        step = (box.q_max - box.q_min) / (resolution - 1)
        return [box.q_min + step * i for i in range(resolution - 1)] + [box.q_max]

    return axis


def _points(boxes: StratumBoxes, axis: Callable[[FrechetBox], Sequence[float]]) -> Iterator[tuple[float, ...]]:
    """The stratum's assignments with each coordinate on `axis`, the mediator coordinate outermost."""
    if boxes.mediator is None:
        return product(axis(boxes.response))
    return product(axis(boxes.mediator), axis(boxes.response))


def _search(scenario: Scenario, axis: Callable[[FrechetBox], Sequence[float]], note: str) -> OracleCertificate:
    """The extremal PC interval over the points on `axis` in `scenario`'s boxes, noted `note`, with its certificate.

    The stratum weights P(S=s|E=1), the per-stratum P(R=1|E=1,S=s) and
    their weighted sum, the denominator, come from the same functions the
    closed form uses; the boxes and the objective are the oracle's own.
    Each stratum's points are visited in `_points` order and ties keep the
    first visitor.  The numerator totals are the strata's extreme weighted
    terms added in stratum order; each is divided by the denominator and
    the pair clamped into [0, 1].
    """
    weights = stratum_posterior(scenario, 1)
    # one box per stratum of each table, the response table first as in StratumBoxes
    tables = reversed(scenario.structure.tables)
    columns = [[frechet_box(p0, p1) for p0, p1 in getattr(scenario, name)] for name, _, _ in tables]
    strata = tuple(map(StratumBoxes, weights, *columns))
    # the P(R=1|E=1) `observe` gives the closed form, so both methods divide by the same float
    denominator = require_denominator(_mix(weights, response_rows(scenario, 1)))
    extremes = []
    for boxes in strata:
        objective, weight = _objective(boxes), boxes.weight
        best_lo = best_hi = None
        at_lo = at_hi = None
        for qs in _points(boxes, axis):
            value = weight * objective(*qs)
            if best_lo is None or value < best_lo:
                best_lo, at_lo = value, qs
            if best_hi is None or value > best_hi:
                best_hi, at_hi = value, qs
        extremes.append((best_lo, best_hi, at_lo, at_hi))
    lows, highs, argmin, argmax = zip(*extremes)  # `require_denominator` has required a stratum
    interval = finish_interval(ordered_sum(lows) / denominator, ordered_sum(highs) / denominator, (note,))
    return OracleCertificate(interval, strata, denominator, argmin, argmax)


def oracle_bounds(scenario: Scenario) -> OracleCertificate:
    """Exact extremal PC interval by corner enumeration, with certificate.

    Corners are visited in lexicographic order (q_min before q_max, the
    mediator coordinate outermost) and ties keep the first visitor, so the
    reported certificate is the lexicographically smallest one.
    """
    return _search(scenario, attrgetter("q_min", "q_max"), "corner enumeration over the potential-outcome boxes")


def grid_scan_bounds(scenario: Scenario, resolution: int) -> PcInterval:
    """Extremal PC interval over uniform grids inside each box.

    The grid covers each free joint parameter with `resolution` points,
    endpoints included; strata decouple, so the product grid over the
    whole polytope factorizes into per-stratum scans.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2 to include both box ends")
    return _search(scenario, _grid(resolution), f"uniform grid scan, {resolution} points per joint parameter").interval
