"""Brute-force corner search, certificates, and the secondary grid scan."""

from fractions import Fraction

import pytest

from causabound import (
    AnalysisMode,
    Method,
    Scenario,
    Structure,
    UndefinedPcError,
    applicable_modes,
    derive_observables,
    grid_scan_bounds,
    oracle_bounds,
    pc_bounds,
    reduce_scenario,
)

APPROX = 1e-12


def all_fixture_runs(*scenarios):
    for sc in scenarios:
        for mode in applicable_modes(sc.structure):
            yield sc, mode


class TestOracleMatchesClosedForms:
    def test_trial_is_exact(self, trial_scenario):
        cert = oracle_bounds(trial_scenario)
        assert cert.interval.lower == 0.6
        assert cert.interval.upper == 1.0
        assert cert.interval.method is Method.ORACLE

    def test_mediation(self, mediation_scenario):
        cert = oracle_bounds(mediation_scenario)
        assert cert.interval.lower == pytest.approx(0.6, abs=APPROX)
        assert cert.interval.upper == pytest.approx(float(Fraction(91, 120)), abs=APPROX)

    def test_crossover(self, crossover_scenario):
        cert = oracle_bounds(crossover_scenario)
        assert cert.interval.lower == pytest.approx(float(Fraction(12, 17)), abs=APPROX)
        assert cert.interval.upper == pytest.approx(1.0, abs=APPROX)

    def test_confounded(self, confounded_scenario):
        cert = oracle_bounds(confounded_scenario)
        assert cert.interval.lower == pytest.approx(0.0, abs=APPROX)
        assert cert.interval.upper == pytest.approx(float(Fraction(25, 119)), abs=APPROX)

    def test_every_fixture_mode_agrees_with_closed_form(
        self, trial_scenario, mediation_scenario, crossover_scenario, confounded_scenario
    ):
        for sc, mode in all_fixture_runs(
            trial_scenario, mediation_scenario, crossover_scenario, confounded_scenario
        ):
            closed = pc_bounds(derive_observables(sc, mode))
            cert = oracle_bounds(reduce_scenario(sc, mode), mode)
            assert cert.interval.lower == pytest.approx(closed.lower, abs=APPROX)
            assert cert.interval.upper == pytest.approx(closed.upper, abs=APPROX)
            assert cert.interval.mode is mode


class TestCertificates:
    def test_mediation_corner_values(self, mediation_scenario):
        cert = oracle_bounds(mediation_scenario)
        stratum = cert.strata[0]
        corners = {}
        for qm in (stratum.mediator.q_min, stratum.mediator.q_max):
            for qr in (stratum.response.q_min, stratum.response.q_max):
                corners[(qm, qr)] = cert.objective(((qm, qr),)) * cert.denominator
        assert sorted(corners.values()) == pytest.approx(
            [0.18, 0.2, 0.2025, 0.2275], abs=APPROX
        )

    def test_mediation_arg_vertices(self, mediation_scenario):
        cert = oracle_bounds(mediation_scenario)
        assert cert.argmin[0] == pytest.approx((0.75, 0.1), abs=APPROX)
        assert cert.argmax[0] == pytest.approx((0.725, 0.0), abs=APPROX)

    def test_reevaluation_is_exact(
        self, trial_scenario, mediation_scenario, crossover_scenario, confounded_scenario
    ):
        for sc, mode in all_fixture_runs(
            trial_scenario, mediation_scenario, crossover_scenario, confounded_scenario
        ):
            cert = oracle_bounds(reduce_scenario(sc, mode), mode)
            assert cert.objective(cert.argmin) == cert.interval.lower
            assert cert.objective(cert.argmax) == cert.interval.upper

    def test_arg_vertices_lie_in_their_boxes(
        self, trial_scenario, mediation_scenario, crossover_scenario, confounded_scenario
    ):
        for sc, mode in all_fixture_runs(
            trial_scenario, mediation_scenario, crossover_scenario, confounded_scenario
        ):
            cert = oracle_bounds(reduce_scenario(sc, mode), mode)
            for assignment in (cert.argmin, cert.argmax):
                for stratum, qs in zip(cert.strata, assignment):
                    boxes = (
                        (stratum.mediator, stratum.response)
                        if stratum.mediator is not None
                        else (stratum.response,)
                    )
                    for box, q in zip(boxes, qs):
                        assert box.q_min <= q <= box.q_max

    def test_ties_resolve_to_the_first_corner_visited(self):
        # all-0.5 scenario: three corners share the minimum; the mediator
        # coordinate varies outermost, so (q_m=0, q_r=0.5) is hit first
        sc = Scenario(Structure.MEDIATOR, response=((0.5, 0.5),), mediator=((0.5, 0.5),))
        cert = oracle_bounds(sc)
        assert cert.argmin == ((0.0, 0.5),)
        assert cert.argmax == ((0.0, 0.0),)
        assert cert.interval.lower == 0.0
        assert cert.interval.upper == 1.0

    def test_stratum_boxes_expose_weights_and_margins(self, crossover_scenario):
        cert = oracle_bounds(crossover_scenario)
        assert [s.weight for s in cert.strata] == pytest.approx([0.8, 0.2], abs=APPROX)
        assert cert.strata[0].response.p0 == 0.2
        assert cert.strata[0].response.p1 == 0.8
        assert cert.strata[0].mediator is None

    def test_degenerate_exposed_risk_is_undefined(self):
        with pytest.raises(UndefinedPcError):
            oracle_bounds(Scenario(Structure.BASIC, response=((0.12, 0.0),)))


class TestGridScan:
    def test_linear_objective_needs_only_the_endpoints(self, trial_scenario):
        interval = grid_scan_bounds(trial_scenario, 2)
        assert interval.lower == 0.6
        assert interval.upper == 1.0

    def test_resolution_two_reproduces_the_corner_search(
        self, trial_scenario, mediation_scenario, crossover_scenario, confounded_scenario
    ):
        for sc, mode in all_fixture_runs(
            trial_scenario, mediation_scenario, crossover_scenario, confounded_scenario
        ):
            reduced = reduce_scenario(sc, mode)
            cert = oracle_bounds(reduced, mode)
            grid = grid_scan_bounds(reduced, 2, mode)
            assert (grid.lower, grid.upper) == (cert.interval.lower, cert.interval.upper)

    def test_mediation_at_resolution_101(self, mediation_scenario):
        cert = oracle_bounds(mediation_scenario)
        grid = grid_scan_bounds(mediation_scenario, 101)
        assert grid.lower == pytest.approx(cert.interval.lower, abs=1e-6)
        assert grid.upper == pytest.approx(cert.interval.upper, abs=1e-6)

    def test_confounded_at_resolution_51(self, confounded_scenario):
        grid = grid_scan_bounds(confounded_scenario, 51)
        assert grid.lower == pytest.approx(0.0, abs=5e-3)
        assert grid.upper == pytest.approx(float(Fraction(25, 119)), abs=5e-3)
        # the grid explores a subset of the box, so it can never widen
        cert = oracle_bounds(confounded_scenario)
        assert grid.lower >= cert.interval.lower - 1e-12
        assert grid.upper <= cert.interval.upper + 1e-12

    def test_interior_points_never_escape_the_corner_interval(self, mediation_scenario, trial_scenario):
        cert = oracle_bounds(mediation_scenario)
        for resolution in (3, 7, 33):
            grid = grid_scan_bounds(mediation_scenario, resolution)
            assert grid.lower >= cert.interval.lower - 1e-12
            assert grid.upper <= cert.interval.upper + 1e-12
        # a single box is linear in qR: its interior points cannot widen the scan at all
        cert = oracle_bounds(trial_scenario)
        grid = grid_scan_bounds(trial_scenario, 5)
        assert (grid.lower, grid.upper) == (cert.interval.lower, cert.interval.upper) == (0.6, 1.0)

    def test_resolution_below_two_is_rejected(self, trial_scenario):
        with pytest.raises(ValueError):
            grid_scan_bounds(trial_scenario, 1)


class TestInformationOrdering:
    def test_stratified_mediator_refines_stratified_marginals(self, confounded_scenario):
        fine = oracle_bounds(confounded_scenario).interval
        coarse_scenario = reduce_scenario(confounded_scenario, AnalysisMode.IGNORE_MEDIATOR)
        coarse = oracle_bounds(coarse_scenario, AnalysisMode.IGNORE_MEDIATOR).interval
        assert fine.lower >= coarse.lower - 1e-12
        assert fine.upper <= coarse.upper + 1e-12

    def test_mediator_refines_basic(self, mediation_scenario):
        fine = oracle_bounds(mediation_scenario).interval
        coarse_scenario = reduce_scenario(mediation_scenario, AnalysisMode.IGNORE_MEDIATOR)
        coarse = oracle_bounds(coarse_scenario, AnalysisMode.IGNORE_MEDIATOR).interval
        assert fine.lower == pytest.approx(coarse.lower, abs=1e-12)
        assert fine.upper <= coarse.upper + 1e-12
