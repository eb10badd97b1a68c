"""Lightweight numeric time series used throughout the analysis code."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

import numpy as np


class Series:
    """An append-only ``(tick, value)`` series."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._ticks: List[int] = []
        self._values: List[float] = []

    def append(self, tick: int, value: float) -> None:
        """Record one sample; ticks must be non-decreasing."""
        if self._ticks and tick < self._ticks[-1]:
            raise ValueError(
                f"non-monotonic tick {tick} after {self._ticks[-1]} in series {self.name!r}"
            )
        self._ticks.append(tick)
        self._values.append(float(value))

    def extend(self, samples: Iterable[Tuple[int, float]]) -> None:
        """Append many ``(tick, value)`` samples."""
        for tick, value in samples:
            self.append(tick, value)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return iter(zip(self._ticks, self._values))

    @property
    def ticks(self) -> np.ndarray:
        return np.asarray(self._ticks, dtype=int)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def mean(self) -> float:
        """Arithmetic mean over the whole series (0.0 if empty)."""
        if not self._values:
            return 0.0
        return float(np.mean(self._values))
