"""Representative-sample reduction (the paper's §4 optimization).

"The cost of the algorithm is quadratic and we significantly reduce
this overhead by choosing one representative sample from the set of
samples that are very close to each other (Euclidean distance) and
discarding other similar samples."

:class:`RepresentativeSet` keeps one representative per epsilon-ball in
the (normalized) high-dimensional metric space. New samples either
*merge* into an existing representative — reusing its identity and its
2-D mapping — or become a new representative that must be placed on the
map. Merge counts are retained so dense regions stay identifiable
(darker points in the paper's figures).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

#: Spare rows a grown table reserves, at least: growing past ``n``
#: rows reserves ``max(n, MIN_SPARE_ROWS)`` more.
MIN_SPARE_ROWS = 16


class RepresentativeSet:
    """Epsilon-ball deduplication, and the table of the learned map.

    A row per mapped state holds its representative, its 2-D
    coordinates and its violation flag. The three columns share one
    capacity and one row count: they grow, compact and clear together.
    :attr:`points`, :attr:`coords` and :attr:`violation` are live views
    of the leading rows, re-pointed when the row count changes, so a
    write into one is a write into the table. The merge test is one
    scan of :attr:`points` per sample. At the <= 250 states a
    controller reaches that costs less than hashing the sample into a
    spatial index does (``docs/ARCHITECTURE.md``).

    Parameters
    ----------
    epsilon:
        Merge radius in the normalized metric space. Samples within
        ``epsilon`` of an existing representative are absorbed by it.
    dimension:
        Sample width. A table holding rows takes only samples of its
        rows' width; an empty one takes its width from its next sample.
    """

    def __init__(self, epsilon: float, dimension: Optional[int] = None) -> None:
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        self.epsilon = epsilon
        self._counts: List[int] = []
        self._empty(dimension)
        self._view()
        #: Distances from the sample of the last :meth:`nearest` (or
        #: :meth:`assign`) to every representative the set then held;
        #: empty when it held none. A new state's placement reads them.
        self.last_distances: np.ndarray = np.empty(0)

    def __len__(self) -> int:
        return len(self._counts)

    @property
    def counts(self) -> np.ndarray:
        """Number of raw samples absorbed by each representative."""
        return np.asarray(self._counts, dtype=int)

    def _empty(self, dimension: Optional[int]) -> None:
        """Zero-capacity columns, the representatives ``dimension`` wide."""
        self.dimension = dimension
        self._points = np.empty((0, dimension or 0))
        self._coords = np.empty((0, 2))
        self._violation = np.empty(0, dtype=bool)

    def _view(self) -> None:
        """Point the live views at the leading ``len(self)`` rows."""
        n = len(self._counts)
        self.points = self._points[:n]
        self.coords = self._coords[:n]
        self.violation = self._violation[:n]

    def nearest(self, sample: np.ndarray) -> Tuple[int, float]:
        """Index of and distance to the nearest representative.

        The first index wins on equal distances. ``sample`` is a float
        vector of the set's dimension, taken as it is (:meth:`assign`
        checks it); every distance of the scan stays in
        :attr:`last_distances`. Raises ``RuntimeError`` when the set is
        empty.
        """
        if not self._counts:
            raise RuntimeError("representative set is empty")
        # point_distances' subtract / square / row sum / sqrt, one ufunc
        # call each: the same operations, so the same bits.
        deltas = self.points - sample
        np.multiply(deltas, deltas, out=deltas)
        distances = np.add.reduce(deltas, axis=1)
        np.sqrt(distances, out=distances)
        self.last_distances = distances
        index = distances.argmin().item()
        return index, distances.item(index)

    def assign(self, sample: np.ndarray) -> Tuple[int, bool]:
        """Insert a sample; return ``(representative_index, is_new)``.

        ``is_new`` is True when the sample opened a new epsilon-ball: a
        new row, safe and at the origin until its owner places it
        against :attr:`last_distances`.
        """
        sample = np.asarray(sample, dtype=float)
        if sample.ndim != 1:
            raise ValueError(f"samples must be 1-D vectors, got shape {sample.shape}")
        n = len(self._counts)
        if sample.shape[0] != self.dimension:
            if n:
                raise ValueError(
                    f"sample dimension {sample.shape[0]} != expected {self.dimension}"
                )
            self._empty(sample.shape[0])

        if n:
            # The nearest representative absorbs the sample; the first
            # index wins on equal distances.
            match, distance = self.nearest(sample)
            if distance <= self.epsilon:
                self._counts[match] += 1
                return match, False
        else:
            self.last_distances = np.empty(0)

        if n == self._points.shape[0]:
            capacity = n + max(n, MIN_SPARE_ROWS)
            self._points, self._coords, self._violation = (
                np.resize(column, (capacity, *column.shape[1:]))
                for column in (self._points, self._coords, self._violation)
            )
        self._points[n] = sample
        self._coords[n] = 0.0
        self._violation[n] = False
        self._counts.append(1)
        self._view()
        return n, True

    def remove_indices(self, indices) -> int:
        """Remove rows by index; returns how many were removed.

        Later rows shift down to fill the gaps, in place, in every
        column.
        """
        n = len(self._counts)
        doomed = {int(i) for i in indices if 0 <= int(i) < n}
        if not doomed:
            return 0
        kept = [i for i in range(n) if i not in doomed]
        for column in (self._points, self._coords, self._violation):
            column[: len(kept)] = column[kept]
        self._counts = [self._counts[i] for i in kept]
        self._view()
        return len(doomed)

    def clear(self) -> None:
        """Remove every row in place; the next sample may set a new width."""
        self._counts.clear()
        self._view()

    def compression_ratio(self) -> float:
        """Raw samples per representative (>= 1.0; higher = more savings)."""
        if not self._counts:
            return 1.0
        return float(sum(self._counts) / len(self._counts))
