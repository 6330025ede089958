"""Grid-scan loops behind `oracle.grid_scan_bounds`.

Plain Python, no NumPy: the oracle imports this module on every CLI call,
where importing NumPy would cost more than the computation itself.
"""

from __future__ import annotations


def backend_name() -> str:
    """Which implementation is live; there is one, in plain Python."""
    return "python"


def scan_single(p1: float, q_lo: float, q_hi: float, resolution: int) -> tuple[float, float]:
    """Min and max of p1 - q over a uniform q grid including both ends."""
    step = (q_hi - q_lo) / (resolution - 1)
    lo = hi = p1 - q_lo
    for i in range(resolution):
        q = q_hi if i == resolution - 1 else q_lo + step * i
        v = p1 - q
        if v < lo:
            lo = v
        elif v > hi:
            hi = v
    return lo, hi


def scan_pair(
    pm0: float,
    pm1: float,
    qm_lo: float,
    qm_hi: float,
    pr0: float,
    pr1: float,
    qr_lo: float,
    qr_hi: float,
    resolution: int,
) -> tuple[float, float]:
    """Min and max of the two-box numerator over the product grid.

    The objective is (pm1 - qm)(pr1 - qr) + (pm0 - qm)(pr0 - qr); both grid
    axes include their exact endpoints.
    """
    m_step = (qm_hi - qm_lo) / (resolution - 1)
    r_step = (qr_hi - qr_lo) / (resolution - 1)
    lo = hi = (pm1 - qm_lo) * (pr1 - qr_lo) + (pm0 - qm_lo) * (pr0 - qr_lo)
    for i in range(resolution):
        qm = qm_hi if i == resolution - 1 else qm_lo + m_step * i
        am = pm1 - qm
        bm = pm0 - qm
        for j in range(resolution):
            qr = qr_hi if j == resolution - 1 else qr_lo + r_step * j
            v = am * (pr1 - qr) + bm * (pr0 - qr)
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
    return lo, hi
