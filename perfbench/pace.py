"""Machine-speed calibration for a noisy host.

On a shared machine the CPU speed available to this process swings by tens
of percent over tens of seconds.  While a workload runs, a 0.2 s interval
timer interrupts it to time a small fixed kernel of Python calls and
small-array NumPy operations, the same kind of work the package does (about
1 % of the run).  A
step's *paced* time is its wall time, less the time spent in the kernel,
scaled by REFERENCE_S / (kernel time near the step): the time the step would
have taken on a machine where the kernel takes REFERENCE_S.  The kernel
never calls the package, so it is the same on every commit.
"""

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.2
REFERENCE_S = 1.5e-3     # the kernel time that defines a paced second
WINDOW_S = 0.5           # kernel samples this close to a step pace it

_X = np.linspace(-1.0, 1.0, 15)
_W = np.full(15, 1.0 / 15.0)
_Z = np.exp(2j * np.pi * np.arange(256) / 256) * 0.9
_C = np.linspace(1.0, 2.0, 17)


def kernel():
    """Fixed work of about 1.5 ms on an idle test host."""
    acc = 0.0
    for i in range(200):
        y = np.exp(_X * (1e-3 * i)) * math.cos(i)
        acc += float(np.sum(_W * np.abs(y)))
    z = np.polynomial.polynomial.polyval(_Z, _C)
    return acc + float(np.mean(np.abs(z)))


class Pacer:
    """Interval-timer sampling of the kernel time; use as a context."""

    def __init__(self):
        self.at = []         # sample start times
        self.took = []       # kernel durations

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def __enter__(self):
        kernel()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def durations(self, t0, t1):
        """(wall, paced) duration of the interval [t0, t1], both without
        the kernel samples taken inside it."""
        at = np.asarray(self.at)
        took = np.asarray(self.took)
        net = (t1 - t0) - float(np.sum(took[(at >= t0) & (at < t1)]))
        distance = np.abs(at - 0.5 * (t0 + t1))
        near = distance <= 0.5 * (t1 - t0) + WINDOW_S
        if not np.any(near):
            near = distance == np.min(distance)
        return net, net * float(np.mean(REFERENCE_S / took[near]))


def kernel_seconds(samples=5):
    """Median time of the kernel after one warm-up call."""
    kernel()
    took = []
    for _ in range(samples):
        t0 = time.perf_counter()
        kernel()
        took.append(time.perf_counter() - t0)
    return float(np.median(took))
