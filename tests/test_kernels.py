"""The plain-Python grid-scan loops."""

import random

import pytest

from causabound import kernels


def random_box(rng):
    p0 = rng.random()
    p1 = rng.random()
    q_min = max(0.0, p0 + p1 - 1.0)
    q_max = min(p0, p1)
    return p0, p1, q_min, q_max


def test_selected_backend_is_reported():
    assert kernels.backend_name() == "python"


def test_pure_backend_endpoint_inclusion():
    lo, hi = kernels.scan_single(0.3, 0.0, 0.12, 2)
    assert (lo, hi) == (0.3 - 0.12, 0.3)
    # interior points cannot widen a linear scan
    lo5, hi5 = kernels.scan_single(0.3, 0.0, 0.12, 5)
    assert (lo5, hi5) == (lo, hi)


def test_pure_pair_scan_matches_hand_corners():
    # complete-mediation boxes: best corner 0.2275, worst 0.18
    lo, hi = kernels.scan_pair(0.975, 0.75, 0.725, 0.75, 0.9, 0.1, 0.0, 0.1, 2)
    assert lo == pytest.approx(0.18, abs=1e-12)
    assert hi == pytest.approx(0.2275, abs=1e-12)


def test_scan_results_are_ordered():
    rng = random.Random(13)
    for _ in range(50):
        p0, p1, q_min, q_max = random_box(rng)
        lo, hi = kernels.scan_single(p1, q_min, q_max, 9)
        assert lo <= hi
