"""Host-speed adjustment of timings made on a shared machine.

On a small virtual machine on a shared host, other tenants slow this
process's core for seconds to minutes at a time: the same encode of the same
input took from 2.2 to 3.7 s within a few minutes, and medians over 45 s
windows of a fixed loop still spread by 20%. No run length or statistic
removed that from wall times, so the benchmark also measures the host's speed
while each operation runs and reports the operation's time at a fixed
reference speed.

The host's speed is sampled with `probe`, a fixed pure-Python integer loop
that uses nothing from voxelcodec. It runs once before and once after an
operation, and every INTERVAL_S seconds during it from a SIGALRM handler
(Python runs the handler between bytecodes, so a long numpy call delays a
sample but is never interrupted). The operation's adjusted time is its wall
time minus the time spent in the probe during it, divided by its slowdown
(the median probe time over REFERENCE_PROBE_S) raised to SLOWDOWN_EXPONENT.
The probe touches almost no memory, so what the codec did just before it
barely moves it: after a large matrix product, a 240 MB fill, an einsum or
a Python loop, interleaved in one process, its medians were within 12% of
each other, in no order that followed the memory touched.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02

# Codec calls slow down less than the probe. The least-squares slope of
# log(wall time) on log(probe slowdown), fitted per workload and call kind,
# ran from 0.43 (static-voxel encode) to 0.94 (static-adaptive set-up); 0.6
# is about the median of those fits (README.md, Host-speed adjustment).
SLOWDOWN_EXPONENT = 0.6

# Probe time on an uncontended core of the reference machine (README.md,
# Reference figures): about the 1st percentile of 2000 back-to-back probes.
# It fixes only the scale of adjusted times.
REFERENCE_PROBE_S = 9.9e-4

_INTS = list(range(256))


def probe() -> float:
    """Seconds taken by the fixed piece of work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(9000):
        acc = (acc * 31 + _INTS[i & 255]) & 0xFFFFFFFF
    return time.perf_counter() - t0


class Timing:
    """Wall seconds of one call without the probes, its slowdown, and its
    seconds at the reference speed."""

    def __init__(self, wall_s, slowdown):
        self.wall_s = wall_s
        self.slowdown = slowdown
        self.adjusted_s = wall_s / slowdown ** SLOWDOWN_EXPONENT


def timed(fn):
    """Run fn() while sampling the host's speed; returns (fn's result, Timing).

    An exception from fn() propagates after the timer and handler are restored.
    """
    samples = [probe()]

    def on_alarm(signum, frame):
        samples.append(probe())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        out = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        wall = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    probe_s = sum(samples[1:])
    samples.append(probe())
    return out, Timing(wall - probe_s, statistics.median(samples) / REFERENCE_PROBE_S)
