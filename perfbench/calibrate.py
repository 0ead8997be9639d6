"""A fixed task of the benchmark's own, timed alongside the program to
take the machine's speed out of the timings.

On a shared 2-vCPU VM the processor's speed changes by up to a factor of
two from one second to the next (a 12 ms task sampled every half second
read about 7.5 ms or about 13 ms, with little between), and every timing
moves with it.  So the benchmark runs on one CPU (see ``run.py``), runs
:func:`task` (double description on one fixed matrix, with the plain-row
arithmetic of ``workloads.py``, no code of the program) every
``INTERVAL_S`` seconds while it measures, and scales the wall time of a
stretch of calls by ``REFERENCE_S`` over the task's mean time in that
stretch.

Every timed metric is thus in reference seconds: the time the work would
take at the speed where the task takes ``REFERENCE_S``.  On that VM,
over runs of four rounds of a fixed 16-matrix batch, this cut the spread
(quartile distance over median) of the per-route times from 0.11-0.15
to 0.03-0.05 on one CPU, and from 0.19-0.43 to 0.04-0.23 on two.
"""

from __future__ import annotations

import random
import time

from workloads import _random_rows, dd_prefix

# Seconds the task takes at the reference speed, about the VM's median.
REFERENCE_S = 0.012
# Least wall time between two samples while measuring.
INTERVAL_S = 0.25
_DD_MAX, _PAIRS_MAX = 400, 5000


def _task_matrix() -> list:
    """A seeded n=8 matrix whose double description peaks above 250 vectors."""
    rng = random.Random("calibration")
    while True:
        rows = _random_rows(rng, 8, 0.6, -5, 5)
        dd = dd_prefix(rows, _DD_MAX, _PAIRS_MAX)
        if dd is not None and dd[0] > 250:
            return rows


_ROWS = _task_matrix()


def task() -> float:
    """Wall seconds of one run of the fixed task."""
    start = time.perf_counter()
    dd_prefix(_ROWS, _DD_MAX, _PAIRS_MAX)
    return time.perf_counter() - start


class Calibrator:
    """Samples of :func:`task` spread over a stretch of measured time.

    Call :meth:`sample` whenever :meth:`due` says so and once at the end;
    :meth:`factor` then turns the wall seconds measured in the stretch
    into reference seconds.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sample()

    def due(self) -> bool:
        return time.perf_counter() - self.at >= INTERVAL_S

    def sample(self) -> None:
        self.samples.append(task())
        self.at = time.perf_counter()

    def factor(self) -> float:
        return REFERENCE_S * len(self.samples) / sum(self.samples)
