"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts. On a 2-vCPU VM the
same ``stats`` pass took 0.70 s through one whole run and 0.85 s through the
next, and bursts of a few passes ran 1.5-2x slower still. Every run sees
another mix, so raw wall times of the same code spread between runs by more
than most changes they should detect.

``Reference.time()`` times a fixed computation that does not use ``hqmm``:
a pure-Python loop and small NumPy products, the interpreter-bound kind of
work that dominates every workload (for ``cli``, interpreter start and
imports). The benchmark times it at the start of each pass, after every
segment of at least a quarter second of tasks, and around each set-up
sample. Each segment (and sample) is scaled by ``REFERENCE_S`` over the mean
of the two reference times around it, so a time reads as it would on a host
where the reference takes ``REFERENCE_S``. The process is pinned to one
CPU, so the reference, the passes and every child process run on the same
core. A change to ``hqmm`` cannot change the reference; raw times stay in
the run record.

Over ten seeds, scaling once per pass cut the run-to-run spread
(IQR/median) of the median pass time from 0.10-0.16 to 0.04-0.06. Scaling
per quarter-second segment then cut the spread of ``cli``'s 90th-percentile
task latency from 0.095 (ten seeds) to 0.026 (seven seeds); unscaled, it
was 0.21. A dense eigensolve in the
reference tracked ``readout`` no better and ``cli`` worse, so it is left out.
"""

from __future__ import annotations

import time

import numpy as np

# The reference's time on the recording machine (2-vCPU Xeon VM at 2.1 GHz,
# Python 3.11, NumPy 2.4.6) in its faster state, so that scaled times stay
# close to what that machine shows.
REFERENCE_S = 0.02

PY_STEPS = 150_000
SMALL_STEPS = 1500


class Reference:
    """A fixed computation whose time tracks the host's speed."""

    def __init__(self):
        self._small = np.full((4, 4), 0.25)

    def time(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(PY_STEPS):
            acc += i * i % 7
        x = np.ones(4)
        for _ in range(SMALL_STEPS):
            x = self._small @ x
            x /= x.sum()
        return time.perf_counter() - t0

    def factor(self, before_s: float, after_s: float) -> float:
        """Scale for an interval bracketed by two reference times."""
        return 2.0 * REFERENCE_S / (before_s + after_s)
