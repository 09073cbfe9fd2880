"""Machine-speed reference, for hosts whose speed drifts under other load.

On a shared host the same code can run 30-50% slower for seconds or
minutes at a time: on a 2-vCPU Xeon VM, back-to-back runs of identical
code differed that much (raw run-to-run IQR 15-55% of the median, against
under 8% once restated). A run therefore times a fixed reference
kernel between the program's operations and restates the times of each
round at the reference speed: measured seconds times NOMINAL_S over the
median kernel time measured during that round. The kernel never calls
ctrzoo, so a change to the program moves restated figures by the same
ratio as raw ones. Raw figures and the kernel samples are kept in each
run's record; the kernel's buffers add 8 MB to the run's peak memory.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.006  # the kernel's duration at the reference speed

_SMALL = np.linspace(0.0, 1.0, 1024).reshape(64, 16)
_W = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
_BIG = np.linspace(0.0, 1.0, 1 << 19)  # 4 MB, beyond a core's share of cache
_OUT = np.empty_like(_BIG)


def kernel():
    """Interpreter work, small numpy calls and memory streaming: ctrzoo's mix.

    The three parts slow down by different amounts under different kinds of
    load (a busy sibling core, memory traffic), so the kernel times all
    three; timed together they tracked the benchmark's own operations more
    closely than any one of them.
    """
    acc = 0.0
    for _ in range(150):
        h = np.maximum(_SMALL @ _W, 0.0) * 0.5
        acc += float(h.sum())
        for j in range(80):
            acc += j * 1e-9
    for _ in range(4):
        np.multiply(_BIG, 1.0001, out=_OUT)
    table = {}
    for i in range(8000):
        table[i & 63] = (acc, i)
    return acc


class SpeedProbe:
    """Times the kernel on request and keeps every sample."""

    def __init__(self):
        self.samples = []

    def sample(self):
        """Time the kernel once; returns the seconds it took."""
        start = perf_counter()
        kernel()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def scale(self, kernel_samples=None):
        """Factor from measured to reference-speed seconds, from the median of
        `kernel_samples` (all of this probe's samples by default)."""
        return NOMINAL_S / statistics.median(kernel_samples or self.samples)
