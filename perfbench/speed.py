"""Machine-speed normalization of measured times.

On a shared machine the speed of the CPU drifts by tens of percent within
seconds, and the drift moves every operation alike. The benchmark therefore
runs a fixed piece of interpreter work (`_calibration_work`, which never
touches pvgr) between operations, at most every CALIBRATE_EVERY seconds,
and reports each operation's time scaled to the speed at which that work
takes REFERENCE_S: a time `t` is reported as `t * REFERENCE_S / c`, with
`c` the median of the two calibrations just before it and the two just
after it. The garbage collector is off during a calibration, so the size of
pvgr's heap does not change the yardstick.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

CALIBRATE_EVERY = 0.05
# The calibration's duration at the reference speed (a typical time on a
# 2-vCPU machine under CPython 3.11). Never change it: every recorded figure
# is expressed at this speed.
REFERENCE_S = 0.003


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _calibration_work() -> int:
    table = {}
    for i in range(6000):
        table[(i, i % 7)] = (i * 31) ^ (i >> 2)
    ordered = sorted(table.items(), key=lambda kv: kv[1])
    return _fib(18) + len(ordered)


class Speed:
    """Calibration samples over one run, and the scaling they imply."""

    def __init__(self) -> None:
        self._at: list[float] = []  # start time of each calibration
        self._took: list[float] = []

    def tick(self, force: bool = False) -> None:
        """Calibrate now if the last calibration is CALIBRATE_EVERY old."""
        now = time.perf_counter()
        if not force and self._at and now - self._at[-1] < CALIBRATE_EVERY:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _calibration_work()
            took = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self._at.append(t0)
        self._took.append(took)

    def factor(self, at: float) -> float:
        """REFERENCE_S over the median of the two calibrations just before
        and the two just after time `at`."""
        k = bisect.bisect_left(self._at, at)
        return REFERENCE_S / statistics.median(self._took[max(0, k - 2):k + 2])

    def scaled(self, start: float, seconds: float) -> float:
        """A duration that began at `start`, expressed at reference speed."""
        return seconds * self.factor(start + seconds / 2)

    def median_factor(self) -> float:
        return REFERENCE_S / statistics.median(self._took)
