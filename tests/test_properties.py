"""Property-based checks over randomized scenarios."""

import hashlib
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from causabound import (
    AnalysisMode,
    AuditEntry,
    CausaboundError,
    ContingencyTable,
    EmptyConditioningCellError,
    Method,
    Scenario,
    Structure,
    applicable_modes,
    compute_intervals,
    derive_observables,
    estimate_from_counts,
    frechet_box,
    grid_scan_bounds,
    oracle_bounds,
    pc_bounds,
    random_scenario,
    reduce_scenario,
    render_json,
    report_document,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from causabound.bounds import finish_interval
from causabound.observables import observe
from causabound.scenario import ordered_sum
from conftest import COLLAPSE_ROUNDING, FULL_MODE_UNDERFLOW, edge_scenario_docs, fraction_image

# the corner maximum of this scenario is 1 + 1 ulp before the clamp
OVERSHOOTING_MEDIATOR = Scenario(Structure.MEDIATOR, response=((0.2, 0.5),), mediator=((0.2, 0.8),))

probs = st.floats(min_value=0.001, max_value=0.999)
pairs = st.tuples(probs, probs)


@st.composite
def basic_scenarios(draw):
    return Scenario(Structure.BASIC, response=(draw(pairs),), exposure=(draw(probs),))


@st.composite
def mediator_scenarios(draw):
    return Scenario(
        Structure.MEDIATOR,
        response=(draw(pairs),),
        mediator=(draw(pairs),),
        exposure=(draw(probs),),
    )


@st.composite
def priors(draw, k):
    raw = draw(st.tuples(*[st.floats(min_value=0.05, max_value=1.0)] * k))
    total = sum(raw)
    return tuple(v / total for v in raw)


@st.composite
def covariate_scenarios(draw):
    k = draw(st.integers(min_value=2, max_value=3))
    return Scenario(
        Structure.COVARIATE,
        response=tuple(draw(pairs) for _ in range(k)),
        exposure=tuple(draw(probs) for _ in range(k)),
        covariate_prior=draw(priors(k)),
    )


@st.composite
def mediator_covariate_scenarios(draw):
    k = draw(st.integers(min_value=2, max_value=3))
    return Scenario(
        Structure.MEDIATOR_COVARIATE,
        response=tuple(draw(pairs) for _ in range(k)),
        mediator=tuple(draw(pairs) for _ in range(k)),
        exposure=tuple(draw(probs) for _ in range(k)),
        covariate_prior=draw(priors(k)),
    )


any_scenario = st.one_of(
    basic_scenarios(),
    mediator_scenarios(),
    covariate_scenarios(),
    mediator_covariate_scenarios(),
)


@given(any_scenario)
def test_generated_scenarios_are_valid(scenario):
    assert validate_scenario(scenario) == ()


@given(any_scenario)
def test_intervals_are_well_formed_in_every_mode(scenario):
    for mode in applicable_modes(scenario.structure):
        interval = pc_bounds(derive_observables(scenario, mode))
        assert 0.0 <= interval.lower <= interval.upper <= 1.0


@settings(max_examples=60)
@given(any_scenario)
def test_closed_form_matches_oracle(scenario):
    for mode in applicable_modes(scenario.structure):
        closed = pc_bounds(derive_observables(scenario, mode))
        cert = oracle_bounds(reduce_scenario(scenario, mode))
        assert abs(closed.lower - cert.interval.lower) <= 1e-9
        assert abs(closed.upper - cert.interval.upper) <= 1e-9


def _exact_endpoints(image, mode, method):
    """`method`'s endpoints on `image`, a `Fraction` scenario, in `mode`; or the error type it raises."""
    try:
        if method is Method.ORACLE:
            interval = oracle_bounds(reduce_scenario(image, mode)).interval
        else:
            interval = pc_bounds(derive_observables(image, mode))
    except CausaboundError as exc:
        return type(exc)
    assert type(interval.lower) is Fraction and type(interval.upper) is Fraction, interval
    return interval.lower, interval.upper


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(any_scenario | edge_scenario_docs().map(scenario_from_dict))
def test_closed_form_equals_oracle_exactly_on_fractions(scenario):
    assume(validate_scenario(scenario) == ())
    image = fraction_image(scenario)
    for mode in applicable_modes(scenario.structure):
        closed = _exact_endpoints(image, mode, Method.CLOSED_FORM)
        assert closed == _exact_endpoints(image, mode, Method.ORACLE), mode


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(edge_scenario_docs())
@example(COLLAPSE_ROUNDING)
@example(FULL_MODE_UNDERFLOW)
def test_every_computed_interval_is_within_tolerance_of_exact(doc):
    scenario = scenario_from_dict(doc)
    assume(validate_scenario(scenario) == ())
    image = fraction_image(scenario)
    for mode in applicable_modes(scenario.structure):
        try:
            intervals = compute_intervals(scenario, mode, (Method.CLOSED_FORM, Method.ORACLE))
        except CausaboundError:
            continue
        exact = pc_bounds(derive_observables(image, mode))
        for interval in intervals:
            assert abs(Fraction(interval.lower) - exact.lower) <= 1e-9, (mode, interval, exact)
            assert abs(Fraction(interval.upper) - exact.upper) <= 1e-9, (mode, interval, exact)


def _closed_form_denominator(scenario, reduced):
    """The P(R=1|E=1) the closed form divides by, once `pc_bounds` has accepted it."""
    observed = observe(scenario, reduced)
    pc_bounds(observed)
    return observed.p_r1_given_e1


def _repr_or_error(call):
    try:
        return "value", repr(call())
    except CausaboundError as exc:
        return "error", str(exc)


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(edge_scenario_docs())
@example(COLLAPSE_ROUNDING)
@example(FULL_MODE_UNDERFLOW)
def test_both_methods_divide_by_the_same_float(doc):
    # `compute_intervals` tests its exact-path trigger once per cell on this one r1
    scenario = scenario_from_dict(doc)
    assume(validate_scenario(scenario) == ())
    for s in (scenario, fraction_image(scenario)):
        for mode in applicable_modes(s.structure):
            try:
                reduced = reduce_scenario(s, mode)
            except CausaboundError:
                continue
            closed = _repr_or_error(lambda: _closed_form_denominator(s, reduced))
            oracle = _repr_or_error(lambda: oracle_bounds(reduced).denominator)
            assert closed == oracle, (mode, s)


@settings(max_examples=60)
@given(any_scenario)
@example(OVERSHOOTING_MEDIATOR)
def test_certificate_reevaluation_is_exact(scenario):
    # the raw extrema pass through the same clamp as the reported endpoints
    cert = oracle_bounds(scenario)
    lower, upper = cert.objective(cert.argmin), cert.objective(cert.argmax)
    iv = cert.interval
    assert finish_interval(lower, upper, iv.notes) == iv


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_frechet_cells_stay_distributions(p0, p1):
    box = frechet_box(p0, p1)
    assert box.q_min <= box.q_max
    for q in (box.q_min, box.q_max):
        cells = [box.cell(v0, v1, q) for v0 in (0, 1) for v1 in (0, 1)]
        assert all(c >= -1e-12 for c in cells)
        assert math.isclose(sum(cells), 1.0, abs_tol=1e-9)


@given(mediator_scenarios())
def test_mediator_refines_basic_upper_and_keeps_lower(scenario):
    fine = pc_bounds(derive_observables(scenario, AnalysisMode.FULL))
    coarse = pc_bounds(derive_observables(scenario, AnalysisMode.IGNORE_MEDIATOR))
    assert fine.upper <= coarse.upper + 1e-12
    assert fine.lower == coarse.lower


@given(mediator_covariate_scenarios())
def test_stratified_mediator_refines_stratified_marginals(scenario):
    fine = pc_bounds(derive_observables(scenario, AnalysisMode.FULL))
    coarse = pc_bounds(derive_observables(scenario, AnalysisMode.IGNORE_MEDIATOR))
    assert fine.upper <= coarse.upper + 1e-12
    assert fine.lower <= coarse.lower + 1e-12
    assert fine.lower >= coarse.lower - 1e-12


@settings(max_examples=40)
@given(mediator_scenarios(), st.integers(min_value=2, max_value=25))
@example(OVERSHOOTING_MEDIATOR, 2)
def test_grid_scan_never_escapes_the_corner_interval(scenario, resolution):
    cert = oracle_bounds(scenario)
    grid = grid_scan_bounds(scenario, resolution)
    assert grid.lower >= cert.interval.lower - 1e-12
    assert grid.upper <= cert.interval.upper + 1e-12


@given(pairs, probs)
def test_identical_strata_collapse_exactly_with_even_prior(row, exposure):
    # both strata equal and the prior even: the collapse averages two equal
    # doubles, which is exact in binary64
    stratified = Scenario(
        Structure.COVARIATE,
        response=(row, row),
        exposure=(exposure, exposure),
        covariate_prior=(0.5, 0.5),
    )
    collapsed = derive_observables(stratified, AnalysisMode.IGNORE_COVARIATE)
    assert collapsed.p_r1_given_e0 == row[0]
    assert collapsed.p_r1_given_e1 == row[1]


edge_probs = st.sampled_from((0.0, 1.0, 1e-300, 5e-324)) | st.floats(min_value=0.0, max_value=1.0)


@st.composite
def edge_mediator_covariate_scenarios(draw):
    """A mediator_covariate scenario, K = 2 to 4, whose entries are often 0, 1, 1e-300 or 5e-324."""
    k = draw(st.integers(min_value=2, max_value=4))
    raw = draw(st.lists(st.sampled_from((0.0, 1.0)) | st.floats(0.05, 1.0), min_size=k, max_size=k))
    assume(any(raw))
    return Scenario(
        Structure.MEDIATOR_COVARIATE,
        response=tuple(draw(st.tuples(edge_probs, edge_probs)) for _ in range(k)),
        mediator=tuple(draw(st.tuples(edge_probs, edge_probs)) for _ in range(k)),
        exposure=tuple(draw(edge_probs) for _ in range(k)),
        covariate_prior=tuple(w / ordered_sum(raw) for w in raw),
    )


def _reduced_or_error_type(scenario, *modes):
    try:
        for mode in modes:
            scenario = reduce_scenario(scenario, mode)
    except CausaboundError as exc:
        return type(exc)
    return repr(scenario)


@settings(max_examples=200, derandomize=True)
@given(edge_mediator_covariate_scenarios())
def test_ignoring_both_is_ignoring_the_mediator_then_the_covariate(scenario):
    both = _reduced_or_error_type(scenario, AnalysisMode.IGNORE_BOTH)
    composed = _reduced_or_error_type(scenario, AnalysisMode.IGNORE_MEDIATOR, AnalysisMode.IGNORE_COVARIATE)
    assert both == composed


@st.composite
def count_tables(draw):
    """A complete counts table of a random structure, K in 2..6, many zero cells.

    Besides scattered zeros, up to three blocks are emptied: every cell with
    one variable at a given value in the last variable's given level.  That
    makes tables with several empty conditioning cells common, which pins
    the order the estimator checks them in.
    """
    structure = draw(st.sampled_from(list(Structure)))
    levels = [2] * len(structure.variables)
    if structure.has_covariate:
        levels[-1] = draw(st.integers(min_value=2, max_value=6))
    assignments = list(itertools.product(*(range(k) for k in levels)))
    cell_counts = st.sampled_from((0, 0, 1, 2, 7, 40))
    counts = draw(st.lists(cell_counts, min_size=len(assignments), max_size=len(assignments)))
    block = st.tuples(st.integers(0, len(levels) - 2), st.integers(0, 1), st.integers(0, levels[-1] - 1))
    for var, value, last in draw(st.lists(block, max_size=3)):
        counts = [0 if a[var] == value and a[-1] == last else c for a, c in zip(assignments, counts)]
    assume(any(counts))
    return ContingencyTable.from_cells(structure.variables, dict(zip(assignments, counts))), structure


def _scanned_estimate(table, structure):
    """The MLE with one `count_where` scan per margin, in the estimator's order."""

    def ratio(var, **condition):
        denominator = table.count_where(**condition)
        if denominator == 0:
            cell = ",".join(f"{v}={condition[v]}" for v in sorted(condition))
            raise EmptyConditioningCellError(f"no observations with {cell}; P({var}=1|{cell}) is 0/0")
        return table.count_where(**{var: 1}, **condition) / denominator

    cause = "M" if structure.has_mediator else "E"
    if not structure.has_covariate:
        exposure = (table.count_where(E=1) / table.total,)
        mediator = ((ratio("M", E=0), ratio("M", E=1)),) if structure.has_mediator else None
        response = ((ratio("R", **{cause: 0}), ratio("R", **{cause: 1})),)
        return Scenario(structure, response, mediator, exposure)
    strata = range(table.s_levels)
    prior = tuple(table.count_where(S=s) / table.total for s in strata)
    exposure = tuple(ratio("E", S=s) for s in strata)
    mediator = None
    if structure.has_mediator:
        mediator = tuple((ratio("M", E=0, S=s), ratio("M", E=1, S=s)) for s in strata)
    response = tuple((ratio("R", **{cause: 0}, S=s), ratio("R", **{cause: 1}, S=s)) for s in strata)
    return Scenario(structure, response, mediator, exposure, prior)


@settings(max_examples=300)
@given(count_tables())
def test_one_pass_estimate_equals_per_conditional_scans(table_and_structure):
    table, structure = table_and_structure
    try:
        expected = _scanned_estimate(table, structure)
    except EmptyConditioningCellError as exc:
        expected = exc
    # estimation must not fall back to one table scan per conditional
    scan = AssertionError("estimate_from_counts scanned the table with count_where")
    with mock.patch.object(ContingencyTable, "count_where", side_effect=scan):
        if isinstance(expected, EmptyConditioningCellError):
            with pytest.raises(EmptyConditioningCellError) as caught:
                estimate_from_counts(table)
            assert str(caught.value) == str(expected)
        else:
            assert repr(estimate_from_counts(table)) == repr(expected)


@given(any_scenario)
def test_scenario_json_round_trip(scenario):
    assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


@settings(max_examples=30)
@given(any_scenario)
def test_reports_render_identically_on_repeat(scenario):
    interval = pc_bounds(derive_observables(scenario, AnalysisMode.FULL))
    doc = report_document(scenario, "sha256:" + "0" * 64, [AuditEntry(AnalysisMode.FULL, Method.CLOSED_FORM, interval)])
    assert render_json(doc) == render_json(doc)
    assert scenario_from_dict(doc["input"]["scenario"]) == scenario


@given(any_scenario)
def test_observable_probabilities_stay_in_range(scenario):
    for mode in applicable_modes(scenario.structure):
        obs = derive_observables(scenario, mode)
        values = [obs.p_r1_given_e1]
        if obs.p_r1_given_e0 is not None:
            values.append(obs.p_r1_given_e0)
        values.extend(obs.stratum_weights)
        for row in obs.stratum_response:
            values.extend(row)
        if obs.stratum_mediator_summary is not None:
            for quad in obs.stratum_mediator_summary:
                values.extend(quad)
        assert all(-1e-9 <= v <= 1.0 + 1e-9 for v in values)
        assert math.isclose(sum(obs.stratum_weights), 1.0, abs_tol=1e-9)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50)
def test_seeded_generator_respects_its_guardrails(seed):
    rng = random.Random(seed)
    for structure in Structure:
        scenario = random_scenario(rng, structure)
        assert scenario.structure is structure
        assert validate_scenario(scenario) == ()
        obs = derive_observables(scenario, AnalysisMode.FULL)
        assert obs.p_r1_given_e1 >= 1e-3
        assert all(w >= 1e-3 for w in obs.stratum_weights)


# sha256 of repr(random_scenario(...)) for seeds 0 to 49, max_strata 3 then 8, each structure in turn;
# the benchmark's audit-sweep pool and `oracle-check` are drawn from this stream
GENERATOR_STREAM_SHA256 = "621421a68a7228e6186c56583c7831d338574d38feb2efa2b225fa1003154d9c"


def test_seeded_generator_stream_is_pinned():
    digest = hashlib.sha256()
    for seed in range(50):
        rng = random.Random(seed)
        for max_strata in (3, 8):
            for structure in Structure:
                digest.update(repr(random_scenario(rng, structure, max_strata)).encode())
    assert digest.hexdigest() == GENERATOR_STREAM_SHA256
