"""Host speed, sampled while a stage runs, to take the host's drift out of its time.

A shared 2-vCPU x86_64 host was seen to switch every few seconds between a
fast state and one about 1.7 times slower, with a share of time spent slow
that changes from one minute to the next by more than any bound the benchmark
may set; process CPU time follows wall time there, so it does not help.
While a stage runs, ``SpeedProbe`` interrupts it every ``interval_s``
(SIGALRM, in the same thread, so nothing runs concurrently) and times a small
fixed kernel. The stage's time with the probes taken out is then rescaled to
the host's fast state:

    normalised = (wall - probe time) * reference / mean(probe time)

The kernels import nothing from the program, so a change to the program
cannot change them. ``python_kernel`` is interpreted arithmetic and imports
nothing at all, so it can time the program's own imports; ``mixed_kernel``
adds the kinds of work the stages do besides (string formatting and parsing,
small numpy element-wise calls, a 1-thread BLAS product), which tracks the
host's speed for them more closely.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05


def python_kernel() -> int:
    s = 0
    for i in range(6000):
        s += (i * 7) ^ (s & 1023)
    return s


_arrays: tuple = ()


def mixed_kernel() -> float:
    global _arrays
    if not _arrays:
        import numpy as np

        rng = np.random.default_rng(12345)
        _arrays = (rng.standard_normal(64), rng.standard_normal((256, 32)),
                   rng.standard_normal((32, 32)))
    v, y, w = _arrays
    acc = float(python_kernel())
    rows = [f"{i},{i * 0.1:.6f}" for i in range(100)]
    acc += sum(float(r.split(",")[1]) for r in rows)
    for _ in range(40):
        v = (v * v + 1.0) ** 0.5 - 1.0
    for _ in range(4):
        y = (y @ w) * 0.1
    return acc + float(v[0]) + float(y[0, 0])


# Kernel time in the host's fast state, run back to back, on a 2-vCPU x86_64
# host (CPython 3.11, numpy 2.4, scipy-openblas 0.3.31). Only ratios to it
# matter: the normalised times of two commits compare as their wall times
# would on a host that stayed fast.
REFERENCE_S = {python_kernel: 0.0005, mixed_kernel: 0.00075}


class SpeedProbe:
    """Times ``kernel()`` every ``interval_s`` of wall time inside the block."""

    def __init__(self, kernel=mixed_kernel, interval_s: float = INTERVAL_S) -> None:
        self.kernel = kernel
        self.interval_s = interval_s
        self.times: list[float] = []

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        self.kernel()
        self.times.append(time.perf_counter() - t)

    def __enter__(self) -> "SpeedProbe":
        if self.kernel is mixed_kernel:
            self.kernel()  # its arrays are made outside the timed block
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, wall_s: float) -> float:
        """``wall_s`` of the block, without the probes, at the fast-state speed."""
        if not self.times:  # a block shorter than one interval
            return wall_s
        mean = statistics.fmean(self.times)
        return (wall_s - sum(self.times)) * REFERENCE_S[self.kernel] / mean
