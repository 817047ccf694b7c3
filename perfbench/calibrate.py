"""Speed sampling: a short fixed kernel, independent of ``sqcap``, run every
``INTERVAL_S`` while operations run.

The machine the baseline was measured on is shared, and its speed switches
by up to a factor of 1.7 within seconds (the program and this kernel slow
alike), and the share of slow time drifts over minutes.  A ``Sampler``
runs the kernel from a ``SIGALRM`` timer on the main thread, so it samples
the speed during an operation, not only between operations.
``Sampler.scale`` takes the kernel's own time out of an operation's time
and scales the rest by ``REFERENCE_S`` over the mean kernel time around
it, so a timing reads what it would at a fixed speed.  The kernel mixes
what ``sqcap`` spends its time on: interpreted float arithmetic, numpy
calls on arrays of a few elements and small LAPACK solves.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

#: Seconds the kernel took, median over a few thousand samples, on the
#: machine the baseline was measured on (2 vCPUs, numpy on OpenBLAS 0.3.31).
REFERENCE_S = 0.0015
#: Seconds between two samples.
INTERVAL_S = 0.05

_GAINS = np.linspace(0.5, 3.0, 5)
_MATRIX = np.random.default_rng(0).standard_normal((5, 4))


def kernel_seconds() -> float:
    """Run the kernel once and return its wall time."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(3000):
        s += math.log2(i + 1.0) * 0.5
    for _ in range(60):
        s += float(np.sum(np.minimum(np.sqrt(1.0 + _GAINS * 2.0), 3.0)))
    for _ in range(30):
        np.linalg.svd(_MATRIX, compute_uv=False)
    return time.perf_counter() - t0


class Sampler:
    """Kernel times sampled every ``INTERVAL_S`` between ``start`` and ``stop``.

    ``mark()`` returns (samples so far, seconds spent in the kernel so far,
    ``time.perf_counter()``); an operation is timed by a mark before and
    after it.  A sampler that was never started times without sampling.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return len(self.samples), self.spent, time.perf_counter()

    @staticmethod
    def seconds(before: tuple, after: tuple) -> float:
        """Seconds from mark ``before`` to mark ``after``, less the kernel's time."""
        return after[2] - before[2] - (after[1] - before[1])

    def scale(self, before: tuple, after: tuple) -> float:
        """``seconds(before, after)`` at the reference speed.  The speed is
        the mean of the samples taken in between and of the one on either
        side; with no samples the time is returned as it is."""
        near = self.samples[max(before[0] - 1, 0):after[0] + 1]
        scale = REFERENCE_S * len(near) / sum(near) if near else 1.0
        return self.seconds(before, after) * scale
