"""Host-speed calibration shared by the benchmark process and its set-up probes.

A fixed loop of exact-rational arithmetic that does not touch stabkit.  Its
time on an idle core of the reference host is CALIBRATION_REF_S, so a
measured time t is t * CALIBRATION_REF_S / calibration at reference speed.
"""

from __future__ import annotations

import time
from fractions import Fraction

CALIBRATION_REF_S = 0.0015


def calibrate() -> float:
    """Time one pass of the calibration loop, in seconds."""
    start = time.perf_counter()
    total = Fraction(0)
    seen: dict[Fraction, int] = {}
    for i in range(1, 160):
        f = Fraction(i * 7 % 31 + 1, i % 13 + 1)
        total += f
        seen[f] = seen.get(f, 0) + 1
        if f * 3 < total / i:
            total -= f
    sorted(seen)
    return time.perf_counter() - start
