"""Machine-speed calibration for the benchmark's timings.

Other load on a shared host slows every instruction of every process on
it (shared cores, caches and memory bandwidth), in bursts that last from
seconds to minutes.  A fixed pure-Python loop timed next to the work
slows down with it, so a time scaled by ``CALIBRATION_REF_S /
calibrate()`` reads about the same whatever the host's load: it is
expressed at the reference speed.  The raw wall times are reported
beside the scaled ones.

The loop is timed in the calling thread's CPU time, so time this
process spends elsewhere (another thread holding the GIL, the scheduler
running something else) does not slow it: only how fast the core
executes Python does.
"""

from __future__ import annotations

import statistics
import time

#: what ``calibrate()`` takes on an unloaded 2.1 GHz Xeon vCPU under
#: CPython 3.11; scaled times are expressed at that speed
CALIBRATION_REF_S = 0.0044


def calibrate() -> float:
    """Time a fixed pure-Python loop that shares no code with ``repro``:
    how fast this core runs Python right now."""
    start = time.thread_time()
    table: dict[int, int] = {}
    acc = 0
    for i in range(30_000):
        table[i & 1023] = acc
        acc = (acc * 31 + i) & 0xFFFF
        if acc in table:
            acc ^= 7
    return time.thread_time() - start


def speed_factor() -> float:
    """``CALIBRATION_REF_S`` over the median of five calibrations."""
    return CALIBRATION_REF_S / statistics.median(
        calibrate() for _ in range(5))
