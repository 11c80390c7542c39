"""Job timing with a host-speed reference.

On a shared host the speed of the same Python code drifts by tens of
percent over a second or two, so a reference loop run only before and after
a job of several seconds misses most of the drift the job saw. The clock
therefore also runs the reference loop from a SIGALRM handler every
TICK_S seconds while a job runs, and subtracts the handler's time from the
job's wall time. The job's reference time is the mean of those samples and
one taken right before the job, so every job has at least one.

Only the main thread runs Python, and the handler runs between bytecodes
of the job. A job that runs a child process which samples for itself
(bench/child.py) turns sampling off in the parent while it waits.
"""

from __future__ import annotations

import signal
import time

_clock = time.perf_counter

TICK_S = 0.01

# Reference-loop time taken as the nominal host speed: a time in seconds
# divided by the reference time measured with it and multiplied by this is
# the time the same work would take on a host where the loop takes 250 us,
# about its median on the host of the figures in bench/README.md.
NOMINAL_REF_S = 250e-6


def reference_loop() -> int:
    """A fixed pure-Python loop of about 0.2 ms. It allocates no container
    objects, so the garbage collector never runs inside it."""
    s = 0
    for i in range(2000):
        s = (s + i * i) % 1000003
    return s


class HostClock:
    def __init__(self):
        self._ref_sum = 0.0
        self._ref_n = 0
        self.stolen = 0.0  # handler time since the clock was made
        self._running = False

    def _tick(self, signum=None, frame=None):
        start = _clock()
        reference_loop()
        end = _clock()
        self._ref_sum += end - start
        self._ref_n += 1
        self.stolen += _clock() - start

    def now(self) -> float:
        """perf_counter() with the handler's time taken out, for spans."""
        return _clock() - self.stolen

    def reference(self):
        """Mean reference-loop time since the last time() began, or None."""
        return self._ref_sum / self._ref_n if self._ref_n else None

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._running = True

    def stop(self) -> None:
        # the handler stays installed, so a SIGALRM already on its way
        # cannot reach the default action, which ends the process
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._running = False

    def time(self, fn, sample: bool = True):
        """Run fn(); return (outcome, exception, seconds, reference seconds).
        Seconds exclude the reference samples taken during the job; the
        reference is None when the clock is stopped or sample is false. A job
        that runs a child process which samples for itself passes
        sample=False, so this process stays idle while it waits."""
        self._ref_sum, self._ref_n = 0.0, 0
        if self._running and sample:
            self._tick()
        elif self._running:
            signal.setitimer(signal.ITIMER_REAL, 0)
        stolen = self.stolen
        start = _clock()
        try:
            outcome, error = fn(), None
        except Exception as exc:  # the caller decides which failures count
            outcome, error = None, exc
        seconds = _clock() - start - (self.stolen - stolen)
        if self._running and not sample:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return outcome, error, seconds, self.reference()
