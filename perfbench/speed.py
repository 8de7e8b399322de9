"""Machine-speed calibration for timings taken on a shared host.

On a small shared machine the speed of one core drifts by half or more
within seconds, so wall-clock times of the same work differ from run to
run far more than any change worth measuring.  While a workload runs, a
timer interrupts it every ``PERIOD_S`` to time a fixed pure-Python loop,
and every timed operation is divided by the local speed factor: the
loop's duration around that operation over ``NOMINAL_S``.  A reported
time is thus in *nominal seconds*, the time the operation takes when the
loop takes ``NOMINAL_S``.  The loop touches no ``tieknot`` code, so a
slower or faster program still shows in full, and the time spent in the
loop is taken out of every operation it interrupts.
"""

from __future__ import annotations

import signal
import time

# The loop's median duration on the reference host (2 shared cores,
# Python 3.11) when the benchmark was defined.
NOMINAL_S = 0.0002
PERIOD_S = 0.1  # rarely interrupts an operation, often enough to follow the drift


def _loop():
    # The same kinds of work as the program: calls, small tuples and
    # strings, dict lookups, list appends and joins.
    table = {"T": 1, "W": -1}
    out = []
    for i in range(60):
        word = ("TW" * (i % 5 + 2))[: i % 7 + 3]
        net = sum(table[c] for c in word) % 3
        out.append((word, net, len(word)))
    return "".join(w for w, _, _ in out)


def sample() -> float:
    """Seconds the calibration loop takes now."""
    start = time.perf_counter()
    _loop()
    _loop()
    return time.perf_counter() - start


class Calibrated:
    """A clock that samples the machine's speed while it is running.

    Use it as a context manager around timed work.  :meth:`now` reads
    ``perf_counter`` minus the time spent sampling; time an operation as
    ``start, mark = clock.now(), clock.mark()`` ... ``clock.add(start,
    mark)``.  :meth:`nominal` gives each operation's time in nominal
    seconds, using the samples taken from just before it to just after.
    """

    def __init__(self):
        self.samples = []
        # (raw seconds, index of the first sample after the operation
        # began, index of the first sample after it ended)
        self.ops = []
        self._paused = 0.0

    def _sample(self, *_):
        start = time.perf_counter()
        self.samples.append(sample())
        self._paused += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def mark(self) -> int:
        return len(self.samples)

    def add(self, start: float, mark: int) -> float:
        """Record the operation that began at ``now() == start``."""
        seconds = self.now() - start
        self.ops.append((seconds, mark, len(self.samples)))
        return seconds

    def nominal(self):
        out = []
        for seconds, begin, end in self.ops:
            local = self.samples[max(begin - 1, 0): end + 1]
            out.append(seconds * NOMINAL_S * len(local) / sum(local))
        return out
