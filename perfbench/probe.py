"""A fixed unit of work that measures how fast this machine runs right now.

The benchmark shares its machine, and the speed of a core can change by a
factor of two within a second as other work comes and goes.  The probe is
timed next to every request; run.py divides each request's time by the
speed the probes saw around it, so that figures from runs made at busy and
quiet moments can be compared.  Its work resembles gapnkit's: a pure-Python
integer loop (like table building and coset enumeration) and numpy gathers
of digit rows from a 177 KB table (like a derivative pass over F_(3^9)).
"""

from __future__ import annotations

import time

import numpy as np

# The probe's time on an unloaded 2-vCPU Intel Xeon (Python 3.11, numpy
# 2.4), so that normalised figures read as seconds on that machine.
REFERENCE_S = 0.002


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._digits = rng.integers(0, 3, size=(3**9, 9), dtype=np.uint8)
        self._index = rng.integers(0, 3**9, size=3**9)

    def _once(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(12000):
            acc += i * i % 7
        for _ in range(3):
            self._digits[self._index].sum()
        return time.perf_counter() - t0

    def __call__(self) -> float:
        """Seconds for one unit of work, the faster of two tries."""
        return min(self._once(), self._once())
