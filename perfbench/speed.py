"""Machine speed, sampled all through a run.

On a shared machine the speed one process gets moves by up to 1.7 times
within a minute, in CPU time as much as in wall time, so raw wall times of
runs minutes apart mostly measure the neighbours. ``Speed`` times a fixed
unit of work (dictionary updates and small matrix-vector products, the two
kinds of work kbtopics does) every ``INTERVAL_S`` of the process's CPU time,
from a signal handler, so samples fall inside every timed operation. Each
sample times the unit's second of two back-to-back runs, with its own data
in the CPU caches, so what the program leaves in the caches barely moves
it. A raw
time is then scaled to a reference speed:

    reference-speed time = raw time * REFERENCE_UNIT_S / median unit time
                           of the samples during the operation (+- PAD_S)

so it reads as the time the operation would take on the reference machine
when nothing else runs. The time spent in the sampler is taken out of the
raw time. The unit is the benchmark's own code; a change to kbtopics cannot
make it faster or slower, so a program that does more work still reads
slower by the same share.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from typing import NamedTuple

import numpy as np

# median time of one unit on the reference machine (Intel Xeon 2.1 GHz,
# one CPU, no other load); fixed, so that runs and checkouts compare
REFERENCE_UNIT_S = 0.0005
INTERVAL_S = 0.04
PAD_S = 0.5


class Speed:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((64, 300))
        self._vector = rng.standard_normal(300)
        self._words = [f"w{i}" for i in range(3000)]
        self.times: list[float] = []     # perf_counter at each sample's end
        self.units: list[float] = []     # seconds the unit took
        self.spent = 0.0                 # seconds spent sampling so far

    def unit(self) -> float:
        """Seconds that one unit of work takes now."""
        t0 = time.perf_counter()
        counts: dict[str, int] = {}
        for w in self._words:
            counts[w] = counts.get(w, 0) + len(w)
        total = 0.0
        for _ in range(40):
            total += float(np.dot(self._matrix, self._vector).sum())
        return time.perf_counter() - t0

    def _sample(self, _signum, _frame) -> None:
        # A garbage collection the unit's allocations set off would do the
        # program's work inside the unit's timing; it waits for the program.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self.unit()  # brings the unit's data back into the CPU caches
        unit = self.unit()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.times.append(end)
        self.units.append(unit)
        self.spent += end - t0

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter without the time spent sampling."""
        return time.perf_counter() - self.spent

    def timed(self, fn):
        """``fn()``'s result and its span: raw seconds without sampling, start, end."""
        spent = self.spent
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        return result, Span(t1 - t0 - (self.spent - spent), t0, t1)

    def scaled(self, span: Span) -> float:
        """``span``'s raw seconds at reference speed."""
        lo = bisect.bisect_left(self.times, span.start - PAD_S)
        hi = bisect.bisect_right(self.times, span.end + PAD_S)
        return span.raw * REFERENCE_UNIT_S / statistics.median(self.units[lo:hi])


class Span(NamedTuple):
    raw: float      # seconds, sampling taken out
    start: float    # perf_counter
    end: float
