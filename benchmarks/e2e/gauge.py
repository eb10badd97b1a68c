"""A speed gauge: how fast this core is running right now.

The benchmark runs on a few cores of a shared host. For seconds to tens
of seconds at a time a neighbour makes a core run everything 1.4-1.7x
slower (CPU time grows with wall time and no steal is reported, so it is
the core that is slower, not the scheduler taking it away), and about
half of any ten runs land in such a phase. No median inside a 20 s run
removes a slow-down that lasts the whole run, so the wall-clock numbers
of one and the same program spread by 30 % and more between runs.

The gauge is a fixed kernel with the program's instruction mix (dict and
list work, strided reads of a large list, NumPy on a few thousand
floats) that takes about 0.4 ms. The timed loops stop every few ticks to
read it, outside every timed region and every trace span, and each chunk
of the loop is then rescaled by ``REFERENCE_S / reading``: the time the
chunk would have taken on a core that runs the kernel in ``REFERENCE_S``.
The kernel draws no random numbers and touches no state of the program
under test, so simulated behaviour is the same with and without it.
Repeating one identical 600-tick episode for two minutes, three times,
raw wall times spread (inter-quartile / median) 15-30 %, rescaled ones
4-5 %, and the rescaled times do not follow the raw ones (r = 0.05-0.4).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Tuple, TypeVar

import numpy

T = TypeVar("T")

#: What the kernel takes on this box when no neighbour is slowing it.
#: Only a unit: every gated time is reported as if the core ran at this
#: speed, so numbers read like quiet-box wall time.
REFERENCE_S = 400e-6

_BIG = [float(i) for i in range(200_000)]
_VECTOR = numpy.arange(4096.0)


def kernel() -> float:
    """Seconds one pass of the fixed kernel takes."""
    begun = time.perf_counter()
    table = {}
    for i in range(1000):
        table[(i & 63, i % 7)] = [i, float(i)]
    total = 0.0
    for pair in table.values():
        total += pair[1]
    big = _BIG
    for i in range(0, 200_000, 149):
        total += big[i]
    vector = _VECTOR
    for _ in range(12):
        vector = numpy.sqrt(vector * vector + 1.0)
        total += float(vector.sum())
    return time.perf_counter() - begun


def reading() -> float:
    """The faster of two kernel passes: an interrupt only ever adds time."""
    return min(kernel(), kernel())


def factor(before: float, after: float) -> float:
    """Multiplier that takes wall time measured between two readings to
    the reference speed."""
    return 2.0 * REFERENCE_S / (before + after)


def steady_reading() -> float:
    """Median of five readings, for a measurement that stands alone: one
    reading wanders by 8 % even on a quiet core, which a timed loop
    averages out over its many chunks and a single build cannot."""
    return statistics.median(reading() for _ in range(5))


def gauged(work: Callable[[], T]) -> Tuple[T, float, float]:
    """Run ``work`` between two readings: its result, raw and rescaled seconds."""
    before = steady_reading()
    begun = time.perf_counter()
    result = work()
    raw = time.perf_counter() - begun
    return result, raw, raw * factor(before, steady_reading())


class Pace:
    """Cuts a timed loop into chunks with a gauge reading on either side.

    ``chunks`` holds, per chunk, its raw wall seconds and how many
    entries each sample list had when it closed, so that every sample
    can be rescaled by the factor of the chunk it was taken in. The
    readings themselves are outside the chunks' wall time.
    """

    def __init__(self, every: int, *samples: List[float]) -> None:
        self.every = every
        self.samples = samples
        self.chunks: List[Tuple[float, Tuple[int, ...]]] = []
        self.readings: List[float] = [reading()]
        self.pending = 0
        self.began = time.perf_counter()

    def tick(self) -> None:
        self.pending += 1
        if self.pending >= self.every:
            self.close()

    def close(self) -> None:
        wall = time.perf_counter() - self.began
        self.readings.append(reading())
        self.chunks.append((wall, tuple(len(samples) for samples in self.samples)))
        self.pending = 0
        self.began = time.perf_counter()

    def factors(self) -> List[float]:
        """Per chunk, the multiplier that takes it to the reference speed."""
        return [factor(before, after) for before, after in zip(self.readings, self.readings[1:])]

    def wall_s(self) -> float:
        return sum(wall for wall, _ in self.chunks)

    def paced_s(self) -> float:
        return sum(wall * scale for (wall, _), scale in zip(self.chunks, self.factors()))

    def rescaled(self, which: int) -> List[float]:
        """Sample list ``which`` with every entry at the reference speed."""
        samples = self.samples[which]
        out: List[float] = []
        for (_, upto), scale in zip(self.chunks, self.factors()):
            out.extend(value * scale for value in samples[len(out):upto[which]])
        return out
