"""Machine-speed calibration: op times scaled to a reference machine speed.

The benchmark's machine is a few cores of a shared host.  Other tenants'
load makes the same code run up to twice as slowly for seconds at a time,
and CPU time slows with wall time (the loss is not steal time), so raw
timings of identical rounds spread far more than any useful regression
bound.  A fixed calibration kernel, which calls nothing in hspex, is timed
every SAMPLE_INTERVAL_S while ops run; each op's time is then scaled by
REFERENCE_KERNEL_S over the kernel's mean time around that op.  A change
to hspex moves the scaled time as it moves the raw one, while a slow phase
of the host moves the kernel too and cancels out.

The kernel has four parts of about equal time, each a kind of code the
workloads run: dict and set building in pure Python, small numpy calls
dispatched from a Python loop, an indexed numpy gather over an array that
fits in L2, and a recursive frozenset search.  No single part tracked every
workload's slowdown; their sum tracked each of them to within 1-4% a round.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Kernel time on the reference machine (2-core KVM guest of an Intel Xeon
# at 2.1 GHz, Python 3.11, numpy 2.4) in an uncontended phase.  It only sets
# the scale in which scaled times are read: seconds on that machine, unloaded.
REFERENCE_KERNEL_S = 0.0015
SAMPLE_INTERVAL_S = 0.05
# samples taken up to this long before an op starts or after it ends count
# for it, so that an op shorter than the interval still has some; wider
# windows tracked the host's phases worse
WINDOW_S = 0.05

_X = np.arange(48.0)
_V = np.linspace(0.5, 1.5, 4096)
_IDX = np.random.default_rng(0).integers(0, 4096, size=(2048, 3))
_ADJ = {v: frozenset(u for u in range(14) if u != v and (7 * u + 3 * v) % 5 in (1, 2))
        for v in range(14)}


def _search(cand: frozenset, depth: int) -> int:
    if depth == 0 or not cand:
        return 1
    return 1 + sum(_search(cand - _ADJ[v] - {v}, depth - 1) for v in sorted(cand)[:3])


def kernel() -> float:
    acc = 0.0
    for i in range(60):
        d = {j: j * i for j in range(24)}
        acc += sum(v for v in d.values() if v & 1) + len({j % 7 for j in d})
    for i in range(100):
        acc += float(np.dot(_X * 1.0001 + i, _X))
    for _ in range(8):
        acc += float(_V[_IDX].prod(axis=1).sum())
    return acc + _search(frozenset(range(14)), 6) + _search(frozenset(range(14)), 6)


def time_kernel(repeats: int) -> float:
    """Mean kernel time over ``repeats`` back-to-back calls."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        kernel()
    return (time.perf_counter() - t0) / repeats


class SpeedSampler:
    """Times the kernel from a SIGALRM handler while ops run.

    The handler runs in the main thread between bytecodes, so it never
    overlaps an op's own work; ``own_time`` gives how much of an interval
    the samples took, to be taken out of that interval's op time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each kernel run

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter()))

    def start(self) -> None:
        time_kernel(3)  # warm the kernel's code paths before the first sample
        self._sample(None, None)  # so that even a first op shorter than the interval has one
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def own_time(self, t0: float, t1: float) -> float:
        return sum(e - s for s, e in self.samples if t0 <= s < t1)

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_KERNEL_S over the mean kernel time around [t0, t1]."""
        near = [e - s for s, e in self.samples if t0 - WINDOW_S <= s < t1 + WINDOW_S]
        if not near:  # no sample fell near a short op: take the closest one
            s, e = min(self.samples, key=lambda se: abs(se[0] - t0))
            near = [e - s]
        return REFERENCE_KERNEL_S / statistics.fmean(near)
