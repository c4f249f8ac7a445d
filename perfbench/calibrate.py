"""Machine-speed calibration that runs no baryeval code.

On a shared virtual machine the speed of the same code changes by up to
1.9x for minutes at a time, and code of different kinds is slowed by
different amounts.  A fixed reference task of small-array NumPy calls driven
by the interpreter is timed throughout a run, interleaved with the measured
phases.  The run's speed factor is its median time over REFERENCE_NS, the
task's time on the reference machine in its fast state.

Each workload gives every end-to-end metric an exponent beta, the slope of
log(metric) against log(speed factor) fitted over runs spanning the slow and
fast states (see README.md).  The reported metric is the measured one
rescaled to the reference speed: rates are multiplied by speed**beta, times
divided by it.  The raw values are kept in the run's output file.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

REFERENCE_NS = 870_000


class Calibration:
    def __init__(self):
        self.small = np.random.default_rng(12345).normal(size=16)

    def step(self, r, i):
        """Time one pass of the reference task, in ns."""
        a = self.small
        t0 = perf_counter_ns()
        for k in range(200):
            x = a - k * 1e-3
            float(x @ a) / (1.0 + int(np.argmin(np.abs(x))))
        return perf_counter_ns() - t0
