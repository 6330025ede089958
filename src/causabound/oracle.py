"""Brute-force verification of the closed-form bounds.

The set of potential-outcome joints consistent with a scenario's margins
is a product of Frechet boxes: one response box per stratum, plus one
mediator box per stratum where M is present.  The PC numerator is, per
stratum,

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
('grid_scan_bounds') checks the corner argument itself: its uniform grids
include the exact box ends, so it can never beat the corner search by more
than float noise, at any resolution.
"""

from __future__ import annotations

from typing import NamedTuple

from . import kernels
from .bounds import Method, PcInterval, finish_interval, require_denominator
from .frechet import FrechetBox, frechet_box
from .observables import chain_response, stratum_posterior
from .scenario import AnalysisMode, Scenario


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
        total = 0.0
        for boxes, qs in zip(self.strata, assignment):
            total += boxes.weight * _stratum_value(boxes, qs)
        return total / self.denominator


def _stratum_value(boxes: StratumBoxes, qs: tuple[float, ...]) -> float:
    if boxes.mediator is None:
        (q_r,) = qs
        return boxes.response.p1 - q_r
    q_m, q_r = qs
    m, r = boxes.mediator, boxes.response
    return (m.p1 - q_m) * (r.p1 - q_r) + (m.p0 - q_m) * (r.p0 - q_r)


def _corners(box: FrechetBox) -> tuple[float, ...]:
    if box.q_min == box.q_max:
        return (box.q_min,)
    return (box.q_min, box.q_max)


def _stratum_corners(boxes: StratumBoxes) -> tuple[tuple[float, ...], ...]:
    response = _corners(boxes.response)
    if boxes.mediator is None:
        return tuple((q,) for q in response)
    return tuple((qm, qr) for qm in _corners(boxes.mediator) for qr in response)


def scenario_boxes(scenario: Scenario) -> tuple[tuple[StratumBoxes, ...], float]:
    """The per-stratum search spaces and the PC denominator P(R=1|E=1), checked usable.

    The stratum weights P(S=s|E=1) come from the same function the closed
    form uses; the boxes and the objective are the oracle's own.
    """
    strata = []
    denominator = 0.0
    for s, weight in enumerate(stratum_posterior(scenario, 1)):
        r_pair = scenario.response[s]
        response = frechet_box(r_pair[0], r_pair[1])
        if scenario.structure.has_mediator:
            m_pair = scenario.mediator[s]  # type: ignore[index]
            strata.append(StratumBoxes(weight, response, frechet_box(m_pair[0], m_pair[1])))
            denominator += weight * chain_response(m_pair, r_pair, 1)
        else:
            strata.append(StratumBoxes(weight, response))
            denominator += weight * r_pair[1]
    return tuple(strata), require_denominator(denominator)


def oracle_bounds(scenario: Scenario, mode: AnalysisMode = AnalysisMode.FULL) -> OracleCertificate:
    """Exact extremal PC interval by corner enumeration, with certificate.

    Corners are visited in lexicographic order (q_min before q_max, the
    mediator coordinate outermost) and ties keep the first visitor, so the
    reported certificate is the lexicographically smallest one.
    """
    strata, denominator = scenario_boxes(scenario)
    total_min = 0.0
    total_max = 0.0
    argmin = []
    argmax = []
    for boxes in strata:
        best_lo = best_hi = None
        at_lo = at_hi = None
        for qs in _stratum_corners(boxes):
            value = boxes.weight * _stratum_value(boxes, qs)
            if best_lo is None or value < best_lo:
                best_lo, at_lo = value, qs
            if best_hi is None or value > best_hi:
                best_hi, at_hi = value, qs
        total_min += best_lo
        total_max += best_hi
        argmin.append(at_lo)
        argmax.append(at_hi)
    interval = finish_interval(
        total_min / denominator,
        total_max / denominator,
        Method.ORACLE,
        mode,
        ("corner enumeration over the potential-outcome boxes",),
    )
    return OracleCertificate(interval, strata, denominator, tuple(argmin), tuple(argmax))


def grid_scan_bounds(
    scenario: Scenario, resolution: int, mode: AnalysisMode = AnalysisMode.FULL
) -> PcInterval:
    """Extremal PC interval over uniform grids inside each box.

    The grid covers each free joint parameter with `resolution` points,
    endpoints included; strata decouple, so the product grid over the
    whole polytope factorizes into per-stratum scans.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2 to include both box ends")
    strata, denominator = scenario_boxes(scenario)
    total_min = 0.0
    total_max = 0.0
    for boxes in strata:
        r = boxes.response
        if boxes.mediator is None:
            lo, hi = kernels.scan_single(r.p1, r.q_min, r.q_max, resolution)
        else:
            m = boxes.mediator
            lo, hi = kernels.scan_pair(
                m.p0, m.p1, m.q_min, m.q_max, r.p0, r.p1, r.q_min, r.q_max, resolution
            )
        total_min += boxes.weight * lo
        total_max += boxes.weight * hi
    return finish_interval(
        total_min / denominator,
        total_max / denominator,
        Method.ORACLE,
        mode,
        (f"uniform grid scan, {resolution} points per joint parameter",),
    )
