"""Reference seconds: end-to-end times corrected for the machine's speed.

On a shared virtual machine the speed of this single-threaded program
swings by up to half between spells that last from seconds to minutes,
and CPU time swings with it, so two runs of the same code can differ more
than any useful bound.  ``RefClock`` times a fixed kernel, which does not
use p2qbrace, every ``PERIOD_S`` seconds from a ``SIGALRM`` handler while
a run is measured.  The kernel has two parts:

- ``numpy``: a gather of 98^3 entries (the size of the tables
  ``ybe.check_ybe`` builds at n = 98) from a 98 x 98 table into a
  preallocated array, the kind of work that dominates ``brace_ybe``;
- ``python``: a dictionary loop, small NumPy calls on 60-element arrays,
  and a sort, a JSON dump and a set of strings: interpreter-bound work, as
  in enumeration and the Aut(A) search.

The kernel's cost is the geometric mean of the two parts' times.  An
interval of ``t`` seconds counts as ``t * REF_S / r`` reference seconds,
where ``r`` is the median kernel cost sampled within ``WINDOW_S`` of the
interval, and ``REF_S`` its cost in the fast spells of the machine the
benchmark was calibrated on (a 2-vCPU Xeon KVM guest).  A change to
p2qbrace moves ``t`` and not ``r``.  The handler's own time is left out of
every interval.
"""

from __future__ import annotations

import json
import math
import random
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.5
WINDOW_S = 2.0
REF_PART_S = {"numpy": 0.0032, "python": 0.0019}
REF_S = math.sqrt(REF_PART_S["numpy"] * REF_PART_S["python"])
_N = 98


@dataclass(frozen=True)
class Interval:
    start: float
    end: float
    seconds: float  # wall time without the sampler's


class RefClock:
    """Samples the reference kernel in the background of the main thread."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = rng.integers(0, _N, size=_N * _N, dtype=np.int32)
        rows, cols = rng.integers(0, _N, size=(2, _N**3))
        self._index = rows * _N + cols
        # preallocated, so that a sample taken inside a call adds nothing
        # to the peak resident set size
        self._out = np.empty(_N**3, dtype=np.int32)
        perm_rng = random.Random(0)
        self._small = rng.integers(0, 60, size=60)
        self._perms = [np.array(perm_rng.sample(range(60), 60)) for _ in range(40)]
        self.samples: list[tuple[float, float, float]] = []  # time, numpy s, python s
        self.spent = 0.0
        self._busy = False
        self._previous = None
        self.running = False

    def _numpy(self) -> None:
        np.take(self._table, self._index, out=self._out)
        int(self._out.sum())

    def _python(self) -> None:
        counts = {}
        for i in range(6000):
            counts[i % 97] = counts.get(i % 89, 0) + i
        small = self._small
        for perm in self._perms:
            image = small[perm]
            int((image[perm] == small).sum())
            np.nonzero(image > 30)
        rows = [(i % 7, str(i), i * 0.5) for i in range(700)]
        rows.sort(key=lambda row: (row[0], row[1]))
        json.dumps(rows[:200])
        len({row[1] for row in rows})

    def _sample(self) -> None:
        t0 = time.perf_counter()
        self._numpy()
        t1 = time.perf_counter()
        self._python()
        t2 = time.perf_counter()
        self.samples.append((t0, t1 - t0, t2 - t1))
        self.spent += t2 - t0

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.running = True
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop sampling, with one last sample; does nothing if not running."""
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.running = False
        self._sample()

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def since(self, mark: tuple[float, float]) -> Interval:
        """The interval from ``mark`` to now, without the handler's time."""
        end = time.perf_counter()
        start, spent = mark
        return Interval(start, end, end - start - (self.spent - spent))

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel cost around [start, end], or the nearest sample's."""
        near = [s for s in self.samples if start - WINDOW_S <= s[0] <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - end))]
        return statistics.median(math.sqrt(n * p) for _, n, p in near)

    def median_part_s(self, part: str) -> float:
        column = 1 if part == "numpy" else 2
        return statistics.median(s[column] for s in self.samples)

    def ref_seconds(self, interval: Interval) -> float:
        return interval.seconds * REF_S / self.kernel_s(interval.start, interval.end)
