"""Machine-speed probe, so that op times can be compared across runs.

On a shared machine the speed of this process's CPU changes with the load
of other tenants: a fixed pure-Python loop has been measured to take 0.033 s
at one moment and 0.07 s a few seconds later, and user CPU time moves with
it, so neither wall nor CPU time of an op is steady from run to run.

The probe samples the speed while the benchmark runs. A real-time interval
timer raises SIGALRM every PROBE_INTERVAL_S; the handler runs on the main
thread between bytecodes. It runs a fixed pure-Python loop once to bring its
code and data back into the caches, then times a second pass and records
it. Timing only the warm pass keeps the op's own memory traffic, which
evicts the loop between samples, out of the factor. A region of the run
[t0, t1] then has

- net seconds: its wall time minus the time of the probe's handler inside it;
- a speed factor: the mean timed-pass duration inside it over
  REFERENCE_PROBE_S, leaving out the slowest TRIM of the passes;
- normalized seconds: net seconds divided by the speed factor.

A few passes take many times longer than the rest, and they make the plain
mean of a region jump from op to op: on repeated identical ops, leaving out
the slowest 10% of the passes lowered the op-to-op variation of normalized
seconds from 7.9% to 4.9% (`market_sweep`) and from 3.9% to 2.6%
(`rates_oracle`).

Normalized seconds assume the library slows down under contention as much
as the loop does. perfbench/README.md gives the checks of that assumption on
each workload: the ratio a known slowdown of the library's hot calls makes
in normalized seconds against the ratio it makes in wall seconds, and the
effect of a competing process. The probe costs about 1% of the run and is
subtracted from every region.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

PROBE_INTERVAL_S = 0.01
PROBE_LOOPS = 300
# About the 1st percentile of the timed pass over 96,000 samples on a
# 2-vCPU Intel Xeon VM with Python 3.11. It only sets the scale of
# normalized seconds.
REFERENCE_PROBE_S = 3.2e-5
MIN_SAMPLES = 8  # a shorter region borrows its neighbours' samples
TRIM = 0.1


def _probe_loop() -> int:
    table: dict = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        key = i & 31
        table[key] = table.get(key, 0) + i
        acc += i * i
    return acc


class SpeedProbe:
    """Samples the loop's duration on SIGALRM while started."""

    def __init__(self):
        self.ends: list[float] = []
        self.costs: list[float] = []  # the whole handler, warm-up included
        self.durations: list[float] = []  # the timed pass
        self.running = False

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        _probe_loop()
        t1 = perf_counter()
        _probe_loop()
        t2 = perf_counter()
        self.ends.append(t2)
        self.costs.append(t2 - t0)
        self.durations.append(t2 - t1)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self.running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    def region(self, t0: float, t1: float) -> dict:
        """Wall, net and normalized seconds of [t0, t1] and its speed factor."""
        ends, durations = self.ends, self.durations
        lo, hi = bisect_left(ends, t0), bisect_right(ends, t1)
        net = (t1 - t0) - sum(self.costs[lo:hi])
        if hi - lo < MIN_SAMPLES:
            mid = (lo + hi) // 2
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(ends) - MIN_SAMPLES))
            hi = min(len(ends), lo + MIN_SAMPLES)
        window = sorted(durations[lo:hi])[: max(1, int((hi - lo) * (1.0 - TRIM)))]
        factor = sum(window) / len(window) / REFERENCE_PROBE_S if hi > lo else 1.0
        return {"wall_s": t1 - t0, "net_s": net, "factor": factor, "norm_s": net / factor}
