"""Op times scaled to a fixed CPU speed.

The machines this benchmark runs on share cores with other tenants. Their
speed switches between levels about 2x apart, several times a second to
once a minute. Raw wall times of identical runs then differ by more than any
regression worth catching. So a short fixed pure-Python kernel (set, dict,
tuple and integer work, like the package's) is timed every EVERY_S seconds,
also in the middle of an op, from a SIGALRM handler. Each op time is
multiplied by REF_S over the mean kernel time around and during it. The
result reads as "the op's time on a CPU that runs the kernel in REF_S",
which cancels a slowdown that hits both alike. `now()` is program time: it
leaves out the time the handler spends on the kernel.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
from time import perf_counter

# Kernel time on the 2-core x86-64 VM the benchmark was defined on, in its
# faster state. It only sets the scale of the reported times.
REF_S = 0.002
EVERY_S = 0.1       # kernel timing interval while sampling
WINDOW_S = 0.1      # samples this close to an op also count for it


def kernel() -> int:
    a = frozenset((i, i * 3 & 15) for i in range(16))
    acc = 0
    table: dict[int, int] = {}
    for i in range(1500):
        b = frozenset(((i + j) & 15, j) for j in range(4))
        acc ^= (len(a & b) + hash((i, acc))) & 7
        table[i & 31] = acc
    return acc


class Clock:
    def __init__(self) -> None:
        self.times: list[float] = []     # perf_counter when each kernel timing ended
        self.kernel_s: list[float] = []  # its kernel time
        self._paused = 0.0

    def now(self) -> float:
        return perf_counter() - self._paused

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.times.append(t1)
        self.kernel_s.append(t1 - t0)

    def _interrupt(self, signum, frame) -> None:
        t0 = perf_counter()
        self.sample()
        self._paused += perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        """Time the kernel every EVERY_S seconds until the block ends."""
        previous = signal.signal(signal.SIGALRM, self._interrupt)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """Factor for the perf_counter interval [start, end]: REF_S over the
        mean kernel time of the samples just before and just after it and of
        all samples within WINDOW_S of it (take a sample after the last
        interval)."""
        last = len(self.times) - 1
        lo = min(bisect.bisect_left(self.times, start - WINDOW_S),
                 max(bisect.bisect_right(self.times, start) - 1, 0))
        hi = max(bisect.bisect_right(self.times, end + WINDOW_S),
                 min(bisect.bisect_left(self.times, end), last) + 1)
        return REF_S / statistics.fmean(self.kernel_s[lo:hi])
