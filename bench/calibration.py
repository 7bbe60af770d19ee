"""Machine-speed calibration for timing on a shared host.

The CPU speed a process sees on a shared machine drifts by tens of percent
over seconds to minutes, with no change in the program.  The benchmark runs
a fixed calibration workload between ops and rescales each measured time by
``REFERENCE_S / calibration time``: the time the op would have taken at the
reference machine's median speed.  The calibration is interpreter work (dict
updates on small ints), which is what the feqc hot paths spend most of their
time on, so both slow down together.  It makes no numpy call, so it leaves no
BLAS buffers behind to inflate the worker's peak memory.  Unscaled times are
printed too.
"""

from __future__ import annotations

import statistics
import time

# Median calibration time on the reference machine: a shared 2-CPU Intel
# Xeon, Python 3.11.7.
REFERENCE_S = 0.0039


def _work() -> None:
    table: dict[int, int] = {}
    for i in range(20000):
        table[i & 255] = table.get(i & 255, 0) + i * 3


def calibrate() -> float:
    """Seconds the calibration workload takes now (median of three runs)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_factors(calibrations: list[float]) -> list[float]:
    """Rescaling factor for the time between calibration k and k + 1.

    Each factor uses the median of the four calibrations around the interval,
    which damps the calibration's own jitter; the speed drifts over seconds,
    longer than the window.
    """
    return [REFERENCE_S / statistics.median(calibrations[max(0, k - 1):k + 3])
            for k in range(len(calibrations) - 1)]
