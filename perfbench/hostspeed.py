"""Host-speed sampling: scale host seconds to the host's nominal speed.

On a virtual machine that shares physical cores with other tenants,
their load can slow this process by up to about 1.7x (seen on a 2-vCPU
Intel Xeon VM), in spells of a second to minutes.  That moves raw host
times between runs by more than any useful bound.
While a timed region runs, a wall-clock interval timer therefore
interrupts it every ``PERIOD_S`` and times a short reference loop --
benchmark code only, no fmlab -- in the signal handler.  The region's
host seconds, minus the time spent in the handler, times ``NOMINAL_S``
over the mean loop time, are its host seconds at nominal speed.  No
change to fmlab can move the loop, so a real gain or loss in fmlab shows
in full.  Raw host seconds are printed beside every scaled figure.

Regions shorter than ``PERIOD_S`` may see no tick; the loop timed right
after the region then stands in.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
# one reference loop on an uncontended 2-vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6
NOMINAL_S = 0.00082
_CSV_ROW = ",".join("1" if i % 3 == 0 else "0" for i in range(465))


def _reference_loop() -> None:
    """About equal parts of the three kinds of work fmlab does.

    Interpreted integer LUT evaluation (like the reference interpreter),
    numpy scalar reads and writes in a Python loop (like the fallback
    kernel), and parsing CSV rows into arrays (like ``Trace.from_csv``).
    """
    table = 0x6996966996696996
    prev = [(i * 7) & 1 for i in range(64)]
    for _ in range(12):
        row = [0] * 64
        for lut in range(64):
            idx = 0
            for b in range(3):
                idx |= prev[(lut + b) & 63] << b
            row[lut] = (table >> idx) & 1
        prev = row

    values = np.zeros((2, 64), np.uint8)
    table64 = np.uint64(table)
    one = np.uint64(1)
    for lut in range(64):
        idx = np.uint64(0)
        for b in range(3):
            idx |= np.uint64(values[0, (lut + b) & 63]) << np.uint64(b)
        values[1, lut] = np.uint8((table64 >> idx) & one)

    rows = [np.array(_CSV_ROW.split(","), dtype=np.uint8) for _ in range(6)]
    np.vstack(rows).sum(axis=0)


class HostClock:
    """Times regions and scales them by the host speed sampled inside them."""

    def __init__(self):
        self._loops: list[float] = []
        self._in_handler = 0.0
        self.factors: list[float] = []
        _reference_loop()  # first pass pays one-time warm-up costs
        signal.signal(signal.SIGALRM, self._tick)

    def _sample(self) -> None:
        t0 = time.perf_counter()
        _reference_loop()
        self._loops.append(time.perf_counter() - t0)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._sample()
        self._in_handler += time.perf_counter() - t0

    def scale_now(self, raw: float) -> float:
        """Scale a region that ran before the clock existed and ended just now."""
        self._loops = []
        for _ in range(8):
            self._sample()
        return raw * self._factor()

    def _factor(self) -> float:
        f = NOMINAL_S * len(self._loops) / sum(self._loops)
        self.factors.append(f)
        return f

    def time(self, fn):
        """Run ``fn()``; return (result, wall s, raw host s, scaled host s).

        Raw host seconds exclude the sampler's handler time; wall seconds
        include it.
        """
        self._loops = []
        self._in_handler = 0.0
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        raw = wall - self._in_handler
        if not self._loops:
            self._sample()
        return result, wall, raw, raw * self._factor()
