"""A clock that reads seconds at a fixed reference speed of the machine.

On a virtual machine that shares its host, the speed of one core can
change by a factor of two from one second to the next, and runs minutes
apart see different speeds.  Wall times then measure the neighbours as
much as the program.  This clock measures the machine's speed while the
program runs, and divides it out:

* every TICK seconds a SIGALRM handler runs a fixed pure-Python kernel
  (exact `Fraction` arithmetic, as in the program, but no ssgamma code)
  and times it;
* the wall time from one tick to the next is scaled by K_REF / k, where
  k is the kernel time measured at the first of them, and the kernel's
  own time is left out.  k is the median of the latest SMOOTH samples,
  which damps the kernel's own jitter; the speed changes more slowly.

So a stretch of wall time during which the kernel runs slowly counts
for less.  K_REF is the kernel time that defines the reference speed:
one reference second is the wall time in which the kernel could run
1 / K_REF times.  The reading is a time in seconds at that speed; a
program that does more work reads more, whatever the machine's speed.

The handler runs between bytecodes of the main thread, so it only
interrupts Python code; system calls interrupted by SIGALRM are retried
(PEP 475).
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

TICK = 0.1  # seconds between kernel samples
K_REF = 0.0005  # seconds: the kernel's time at the reference speed
REPEATS = 3  # kernel runs per sample; the sample is their median
SMOOTH = 3  # the speed used is the median of this many latest samples


def _kernel():
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 1)
    return s


def kernel_time() -> float:
    """Median wall time of one kernel run, over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class RefClock:
    """Reference seconds since start(), sampled by a SIGALRM handler."""

    def __init__(self):
        self.samples = []  # kernel times, for the report
        self._ref = 0.0  # reference seconds up to _wall
        self._wall = None  # perf_counter at the end of the last sample
        self._k = None  # latest kernel time
        self._ticks = 0  # lets a reader see that a tick ran during its read

    def start(self):
        self.samples.append(kernel_time())
        self._k = self.samples[-1]
        self._wall = perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        began = perf_counter()
        self.samples.append(kernel_time())
        self._ref += (began - self._wall) * K_REF / self._k
        self._k = statistics.median(self.samples[-SMOOTH:])
        self._wall = perf_counter()
        self._ticks += 1

    def __call__(self) -> float:
        while True:
            ticks = self._ticks
            value = self._ref + (perf_counter() - self._wall) * K_REF / self._k
            if ticks == self._ticks:
                return value
