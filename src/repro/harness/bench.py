"""A machine-speed yardstick for the repository benchmark (``bench/``)."""

from __future__ import annotations

import time

_CALIBRATION_LOOPS = 2_000_000
_CALIBRATION_REPEATS = 3


def calibrate() -> float:
    """Wall-clock seconds for a fixed pure-Python loop (best of 3).

    The repository benchmark records it as ``host.calibration_s`` next
    to every run, so two runs can be told apart by host speed.  Nothing
    gates on it.
    """
    best = None
    for _ in range(_CALIBRATION_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_LOOPS):
            acc += i
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best
