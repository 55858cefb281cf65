"""Host-speed reference: state every timing at one speed of the host.

The 2-vCPU host the benchmark is proven on shares its cores with other
machines and changes speed from one second to the next: a fixed kernel
of the benchmark's own code takes 5.5 ms in one probe and 10 ms a few
seconds later, and over 30-second windows its mean spreads by a fifth
(0.21–0.26 over seven windows). The program's timings swing with it, so
a timing taken over one run moves with the share of slow stretches the
run fell in, by about the regression bound itself.

So each workload runs that kernel — never program code, so no program
change can move it — before its first round, after every round, and at
a few points inside each round (between its phases; every tenth lowdim
batch in ``answer``). A round's timings are multiplied by
``REFERENCE_MS`` over the mean kernel time of every probe in the round,
the two that bracket it included. A timing is then stated at the host
speed at which the kernel takes ``REFERENCE_MS``; a program that gets
10% slower still reads 10% slower. The unscaled values, every kernel
time and every factor are kept in the run's record.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: the kernel's time at the host speed timings are stated at; its median
#: on the 2-vCPU Intel Xeon host the bounds were proven on was 6–9 ms
REFERENCE_MS = 7.0


class HostSpeed:
    """Times the reference kernel and turns it into per-round factors."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # 32 MB, larger than the cache a vCPU gets, so the gather pays
        # for memory the way the program's large arrays do
        self._table = rng.random(1 << 22)
        self._index = rng.integers(0, len(self._table), size=50_000)
        self._small = rng.random((10, 6, 2, 2))
        #: every reference time of the run, in ms
        self.reference_ms: List[float] = []
        #: the factor of every round, in order
        self.factors: List[float] = []
        self._round: List[float] = []

    def _kernel(self) -> float:
        """Interpreter, small-array numpy and memory work, about a third
        each: the three kinds of work the workloads' hot paths do."""
        total = 0
        counts = {}
        for i in range(12_000):
            total += i * i
            counts[i & 255] = total
        weights = np.ones((10, 16))
        for _ in range(300):
            self._small.sum(axis=(2, 3))
            weights = weights * 1.0001
            weights /= weights.sum(axis=1, keepdims=True)
        gathered = 0.0
        for _ in range(10):
            gathered += float(self._table[self._index].sum())
        return total + gathered + float(weights[0, 0])

    def probe(self) -> float:
        """Run the kernel once; record and return its time in ms."""
        started = time.perf_counter()
        self._kernel()
        ms = (time.perf_counter() - started) * 1e3
        self.reference_ms.append(ms)
        self._round.append(ms)
        return ms

    def start(self) -> None:
        """Probe once before the first round."""
        self._round = []
        self.probe()

    def end_round(self) -> float:
        """Probe after a round; return the factor that states the round's
        timings at ``REFERENCE_MS``: the reference time over the mean of
        every probe taken in the round, the two that bracket it
        included."""
        self.probe()
        factor = REFERENCE_MS / statistics.fmean(self._round)
        self._round = self._round[-1:]
        self.factors.append(factor)
        return factor
