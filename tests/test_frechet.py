"""Feasible joint distributions of the two potential responses."""

from fractions import Fraction

import pytest

from causabound import FrechetBox, Scenario, Structure, frechet_box


def test_bounds_on_the_overlap_mass():
    box = frechet_box(0.12, 0.3)
    assert box.q_min == 0.0
    assert box.q_max == 0.12


def test_lower_corner_activates_when_margins_are_large():
    box = frechet_box(0.7, 0.8)
    assert box.q_min == pytest.approx(0.5, abs=1e-15)
    assert box.q_max == 0.7


def test_degenerate_margins_pin_the_joint():
    box = frechet_box(0.0, 1.0)
    assert box.q_min == 0.0
    assert box.q_max == 0.0
    assert box.cell(0, 1, 0.0) == 1.0


def test_equal_margins_allow_identity_coupling():
    box = frechet_box(0.4, 0.4)
    assert box.q_max == 0.4
    assert box.cell(0, 1, box.q_max) == pytest.approx(0.0, abs=1e-15)
    assert box.cell(1, 0, box.q_max) == pytest.approx(0.0, abs=1e-15)


def test_cells_form_a_distribution():
    box = frechet_box(0.37, 0.81)
    for q in (box.q_min, box.q_max, 0.5 * (box.q_min + box.q_max)):
        cells = [box.cell(v0, v1, q) for v0 in (0, 1) for v1 in (0, 1)]
        assert all(c >= -1e-12 for c in cells)
        assert sum(cells) == pytest.approx(1.0, abs=1e-12)


def test_cell_identities():
    box = frechet_box(0.37, 0.81)
    q = 0.3
    assert box.cell(1, 1, q) == q
    assert box.cell(1, 0, q) == pytest.approx(0.37 - q, abs=1e-15)
    assert box.cell(0, 1, q) == pytest.approx(0.81 - q, abs=1e-15)
    assert box.cell(0, 0, q) == pytest.approx(1 - 0.37 - 0.81 + q, abs=1e-15)


def test_benefit_cell_range_for_the_trial_margins():
    # margins P(R(0)=1)=0.12, P(R(1)=1)=0.3: the mass helped by exposure
    # can be anything from 0.18 to 0.30
    box = frechet_box(0.12, 0.3)
    low, high = box.cell_range(0, 1)
    assert low == 0.18
    assert high == 0.3
    assert (low * 100, high * 100) == (18.0, 30.0)


def test_cell_range_orientation():
    box = frechet_box(0.58, 0.63)
    lo, hi = box.cell_range(1, 1)
    assert (lo, hi) == (box.q_min, box.q_max)
    lo01, hi01 = box.cell_range(0, 1)
    assert lo01 == pytest.approx(box.p1 - box.q_max, abs=1e-15)
    assert hi01 == pytest.approx(box.p1 - box.q_min, abs=1e-15)
    assert lo01 <= hi01


def test_margin_validation():
    with pytest.raises(ValueError):
        frechet_box(1.2, 0.5)
    with pytest.raises(ValueError):
        frechet_box(0.5, -0.1)


def test_tiny_overshoot_is_clamped_into_a_valid_box():
    box = frechet_box(1.0 + 5e-10, 0.3)
    assert box.q_max <= min(box.p0, box.p1) + 1e-9
    assert box.q_min <= box.q_max
    # the margins are stored exactly as a Scenario stores a table entry
    for p in (-5e-10, 1.0 + 5e-10, -0.0, Fraction(0)):
        stored = Scenario(Structure.BASIC, ((p, 0.3),)).response[0]
        assert repr(frechet_box(p, 0.3)[:2]) == repr(stored)


def test_box_is_immutable():
    box = frechet_box(0.12, 0.3)
    with pytest.raises(AttributeError):
        box.p0 = 0.5
    assert isinstance(box, FrechetBox)
