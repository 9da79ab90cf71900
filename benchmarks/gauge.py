"""A fixed computation, timed every 50 ms of a run, that gauges the host's speed.

On a shared host the program runs at a speed set by what the neighbouring
cores do, and the mix of fast and slow moments drifts from one run to the
next; README.md gives the figures.  The gauge is a computation of the same
kind as the program's (small dense NumPy products and element-wise updates
under the interpreter) that does not depend on the program.  ``start`` arms
a wall-clock interval timer; on each ``SIGALRM`` the main thread, at its
next bytecode boundary, times the computation once.  The samples fall at
moments spread evenly over the run, whatever the program is doing, and the
benchmark states its timings at a fixed host speed: multiplied by
``NOMINAL_S`` over the gauge's mean time in the same stretch of the run.
A sample runs inside whatever span is open, so the time of the samples is
taken out of the spans that enclose them.
"""

import signal
import time
from array import array

import numpy as np

# One sample per interval: about 2% of a run.
INTERVAL_S = 0.05
SIZE, ITERATIONS = 81, 100
# A typical mean time of one sample on the 2-vCPU Intel Xeon (2.1 GHz) the
# benchmark was written on; it only sets the scale of the stated timings.
NOMINAL_S = 8.0e-4


class Gauge:
    """Samples of the gauge computation: start and end times, in ``perf_counter`` seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((SIZE, SIZE))
        self.vector = rng.standard_normal(SIZE)
        self._previous = None
        self.clear()

    def clear(self):
        self.start_time = array("d")
        self.end_time = array("d")

    def sample(self, *signal_args):
        y = self.vector
        t0 = time.perf_counter()
        for _ in range(ITERATIONS):
            y = self.matrix @ y
            y = y / np.abs(y).max() + 0.5 * self.vector
        t1 = time.perf_counter()
        self.start_time.append(t0)
        self.end_time.append(t1)

    def start(self):
        """Sample every INTERVAL_S seconds of wall time until ``stop``."""
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Disarm the timer and restore the previous handler; safe to call when not started."""
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None

    def durations(self) -> np.ndarray:
        return (np.frombuffer(self.end_time, dtype=np.float64)
                - np.frombuffer(self.start_time, dtype=np.float64))

    def inside(self, starts, ends) -> np.ndarray:
        """Mask of the samples taken inside one of the sorted, disjoint intervals."""
        begun = np.frombuffer(self.start_time, dtype=np.float64)
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        idx = np.searchsorted(starts, begun, side="right") - 1
        ok = idx >= 0
        ok[ok] = begun[ok] < ends[idx[ok]]
        return ok

    def time_inside(self, starts, ends) -> float:
        """Seconds of gauge samples taken inside the intervals."""
        return float(self.durations()[self.inside(starts, ends)].sum())

    def scale(self, starts=None, ends=None) -> float:
        """NOMINAL_S over the mean sample time, of the samples inside the intervals if given."""
        durations = self.durations()
        if starts is not None:
            durations = durations[self.inside(starts, ends)]
        return NOMINAL_S / float(durations.mean())
