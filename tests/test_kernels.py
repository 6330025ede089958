"""The grid-scan implementation name reported in benchmark provenance."""

from causabound import kernels


def test_selected_backend_is_reported():
    assert kernels.backend_name() == "python"
