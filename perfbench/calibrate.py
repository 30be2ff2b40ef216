"""A fixed kernel that measures how fast the machine runs at the moment.

The benchmark's host is shared, and its speed changes by up to 2x within
seconds and for minutes at a time (README.md).  The kernel below does not
depend on topocorr: one unit runs small LAPACK calls, a pure-Python loop
and a memory-bound ufunc, the three kinds of work a topocorr op is made of,
for about 6 ms.  ``run.py`` times units right before and right after each
single-threaded op and, while it runs, one unit every ``SAMPLE_INTERVAL_S``
from a timer signal.  It scales the op's wall time by
``REFERENCE_S / mean unit time``, so that an op reads as the time it would
take at the speed the kernel had when ``REFERENCE_S`` was fixed.  The
kernel's code and inputs never change, so a change to topocorr moves the
scaled times and the machine's state mostly does not.

Import only after ``workloads.pin_threads()``.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Unit time on the 2-vCPU VM this benchmark was built on, in its fast state:
# the 10th percentile of 400 ``measure()`` calls (the median was 1.23x that).
# Scaled times thus read about as wall times in that state.  Only the unit
# of the scaled times depends on this value.
REFERENCE_S = 0.00597
UNITS_PER_BRACKET = 5
SAMPLE_INTERVAL_S = 0.25

_A = np.random.default_rng(12345).standard_normal((60, 60))
_X = np.ones(500_000)
_Y = np.ones(500_000)


def unit(out: np.ndarray) -> None:
    """One unit of the kernel; it writes only to ``out``."""
    np.linalg.svd(_A)
    np.linalg.eigvals(_A)
    s = 0
    for i in range(24_000):
        s += i * i % 7
    for _ in range(5):
        np.add(_X, _Y, out=out)


class Calibrator:
    """Times kernel units around and during single-threaded ops."""

    def __init__(self):
        self.out = np.empty_like(_X)
        self.samples: list[float] = []

    def measure(self) -> float:
        """Mean time of ``UNITS_PER_BRACKET`` units run back to back."""
        t0 = time.perf_counter()
        for _ in range(UNITS_PER_BRACKET):
            unit(self.out)
        seconds = (time.perf_counter() - t0) / UNITS_PER_BRACKET
        self.samples.append(seconds)
        return seconds

    @contextmanager
    def sampling(self, taken: list[float]):
        """Run one unit every ``SAMPLE_INTERVAL_S`` in the main thread while
        the block runs, and append each unit's time to ``taken``.

        The handler runs between bytecodes of the main thread, so the units'
        time is part of the block's wall time and must be taken out of it.
        """

        def handler(signum, frame):
            t0 = time.perf_counter()
            unit(self.out)
            taken.append(time.perf_counter() - t0)

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, seconds: float, unit_times: list[float]) -> float:
        """``seconds`` of wall time, during which kernel units took
        ``unit_times``, at the kernel's reference speed."""
        return seconds * REFERENCE_S / statistics.mean(unit_times)

    def median_ms(self) -> float:
        return 1000 * statistics.median(self.samples) if self.samples else 0.0
