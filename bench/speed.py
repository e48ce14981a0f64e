"""Host speed: fixed reference kernels, timed during the runs they scale.

The benchmark's host is a shared virtual machine whose speed swings by up
to 70 % over tens of seconds, in CPU time as much as in wall time, so raw
call times from runs a few minutes apart disagree by more than any bound a
regression check could use. Each measured time is therefore scaled by how
fast the host ran a fixed reference kernel during the run:

    normalized = raw * REFERENCE_S / harmonic mean of the run's kernel times

which reads as the time the call would take while the kernel takes
REFERENCE_S, about its time when the host runs at its usual speed. The
kernel runs every quarter second, also in the middle of a call, with its
time taken out of the call's. The samples are even in time, and a fixed
amount of work takes its size over the mean speed of the time it ran in, so
the run is scaled by the mean of the kernel's speeds, the inverse of its
times: the harmonic mean of the times. Single samples swing by a factor of
two within seconds; in ten-run trials scaling by the harmonic mean spread
2 to 7 % where the median spread up to 12 %, and scaling each call by its
neighbouring samples spread more than scaling the run. The kernels are the
benchmark's own code and import nothing from the program, so a change to
the program moves the normalized time as much as the raw.

Different work slows down differently when the host is busy: oracle-like
small-Fraction arithmetic tracked the `fraction` kernel to within a few per
cent over four minutes, while it drifted against the `bigint` kernel by
20 %; big-integer settle checks did the opposite. So each workload is scaled
by the kernel that does the same kind of work as its dominant cost. The
tracking is partial, stronger on the oracle than on the deep iteration;
bench/README.md gives the measured spreads with and without it.
"""

from __future__ import annotations

import math
import signal
import time
from fractions import Fraction

# kernel times at the host's usual speed (2-vCPU VM at 2.0 GHz, CPython 3.11);
# only a unit: the same constant scales the parent and a change alike
REFERENCE_S = {"fraction": 0.0050, "bigint": 0.0045}
# a bare interpreter start, for set-up time
REFERENCE_START_S = 0.070
MIN_RUNS = 3
TICK_S = 0.25  # one kernel run of about 5 ms every quarter second: 2 % of a run

# (Horner coefficients, scan bound, grid points): a cubic and a degree-24
# polynomial, scanned on a grid of 8192 cells over [-bound, bound], as a grid
# oracle scans the corpus; the points split the time about as the corpus does
_SCANS = (
    ((0, -1, -1), 2, 125),
    ((3,) + (0,) * 17 + (-1,) + (0,) * 4 + (7,), 8, 14),
)


def fraction_kernel() -> int:
    """Signs of polynomials by exact Horner on a Fraction grid, as in a grid
    oracle's scan."""
    changes = 0
    for coeffs, bound, points in _SCANS:
        step = Fraction(2 * bound, 8192)
        prev = None
        for t in range(points):
            x = Fraction(-bound) + step * (1000 * t + 1)
            value = 1
            for c in coeffs:
                value = value * x - c
            sign = (value > 0) - (value < 0)
            changes += prev is not None and sign != prev
            prev = sign
    return changes


def bigint_kernel() -> int:
    """Fraction comparisons and gcds on integers of about 1200 to 1300 bits,
    as in settle and cycle checks of a deep iteration."""
    a, b = 3**700 + 1, 5**600 + 7
    tol = Fraction(1, 10**12)
    close = 0
    for _ in range(60):
        a, b = 3 * a + b, a + 2 * b
        close += abs(Fraction(a, b) - Fraction(a + 1, b + 3)) <= tol
        close += math.gcd(math.gcd(a, b), a - b) > 1
    return close


KERNELS = {"fraction": fraction_kernel, "bigint": bigint_kernel}


def sample(kernel: str) -> list[float]:
    """Times of MIN_RUNS back-to-back runs of one kernel."""
    run = KERNELS[kernel]
    times = []
    for _ in range(MIN_RUNS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return times


class Ticker:
    """Times one kernel run every TICK_S of wall time, from a SIGALRM
    handler, so the samples cover long calls as evenly as short ones.

    `clock()` is a perf_counter that stops while the handler runs, for
    timing calls without the kernel's time in them."""

    def __init__(self, kernel: str) -> None:
        self.run = KERNELS[kernel]
        self.samples: list[float] = []
        self.paused = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.run()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.paused += time.perf_counter() - start

    def clock(self) -> float:
        while True:  # retry if a tick lands between the two reads
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:
                return now - paused

    def __enter__(self) -> Ticker:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def normalize(raw_s: float, kernel: str, kernel_s: float) -> float:
    """A time scaled by how long the kernel took while it was measured."""
    return raw_s * REFERENCE_S[kernel] / kernel_s
