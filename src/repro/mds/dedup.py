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

#: Spare rows reserved in a rebuilt representative matrix, at least;
#: a rebuild of ``n`` rows reserves ``max(n, MIN_SPARE_ROWS)`` more.
MIN_SPARE_ROWS = 16


class RepresentativeSet:
    """Epsilon-ball deduplication over high-dimensional samples.

    The merge test is one scan of :attr:`points` per sample. At the
    <= 250 states a controller reaches that costs less than hashing the
    sample into a spatial index does (``docs/ARCHITECTURE.md``).

    Parameters
    ----------
    epsilon:
        Merge radius in the normalized metric space. Samples within
        ``epsilon`` of an existing representative are absorbed by it.
    dimension:
        Expected sample dimensionality (checked on every insert).
    """

    def __init__(self, epsilon: float, dimension: Optional[int] = None) -> None:
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        self.epsilon = epsilon
        self.dimension = dimension
        self._points: List[np.ndarray] = []
        self._counts: List[int] = []
        # ``_matrix`` is the first ``len(_points)`` rows of ``_buffer``;
        # a new representative is copied into the next spare row.
        # ``None`` means: rebuild both from ``_points``.
        self._buffer: Optional[np.ndarray] = None
        self._matrix: Optional[np.ndarray] = None
        #: Distances from the sample of the last :meth:`nearest` (or
        #: :meth:`assign`) to every representative the set then held;
        #: empty when it held none. A new state's placement reads them.
        self.last_distances: np.ndarray = np.empty(0)

    def __len__(self) -> int:
        return len(self._points)

    @property
    def counts(self) -> np.ndarray:
        """Number of raw samples absorbed by each representative."""
        return np.asarray(self._counts, dtype=int)

    @property
    def points(self) -> np.ndarray:
        """``(n_representatives, dimension)`` matrix of representatives."""
        matrix = self._matrix
        if matrix is None or matrix.shape[0] != len(self._points):
            n = len(self._points)
            if not n:
                return np.empty((0, self.dimension or 0))
            self._buffer = np.empty((n + max(n, MIN_SPARE_ROWS), self._points[0].shape[0]))
            self._buffer[:n] = self._points
            matrix = self._matrix = self._buffer[:n]
        return matrix

    def nearest(self, sample: np.ndarray) -> Tuple[int, float]:
        """Index of and distance to the nearest representative.

        The first index wins on equal distances. ``sample`` is a float
        vector of the set's dimension, taken as it is (:meth:`assign`
        checks it); every distance of the scan stays in
        :attr:`last_distances`. Raises ``RuntimeError`` when the set is
        empty.
        """
        if not self._points:
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

        ``is_new`` is True when the sample opened a new epsilon-ball
        (and therefore needs a fresh 2-D placement downstream, against
        :attr:`last_distances`).
        """
        sample = np.asarray(sample, dtype=float)
        if sample.ndim != 1:
            raise ValueError(f"samples must be 1-D vectors, got shape {sample.shape}")
        if self.dimension is None:
            self.dimension = sample.shape[0]
        elif sample.shape[0] != self.dimension:
            raise ValueError(
                f"sample dimension {sample.shape[0]} != expected {self.dimension}"
            )

        if self._points:
            # The nearest representative absorbs the sample; the first
            # index wins on equal distances.
            match, distance = self.nearest(sample)
            if distance <= self.epsilon:
                self._counts[match] += 1
                return match, False
        else:
            self.last_distances = np.empty(0)

        n = len(self._points)
        self._points.append(sample.copy())
        self._counts.append(1)
        matrix, buffer = self._matrix, self._buffer
        if matrix is not None and matrix.shape[0] == n and n < buffer.shape[0]:
            buffer[n] = sample
            self._matrix = buffer[: n + 1]
        else:
            self._matrix = None
        return n, True

    def remove_indices(self, indices) -> int:
        """Remove representatives by index; returns how many were removed.

        Later representatives shift down to fill the gaps (callers that
        keep index-aligned side arrays must compact them identically).
        The matrix cache is invalidated.
        """
        doomed = {int(i) for i in indices if 0 <= int(i) < len(self._points)}
        if not doomed:
            return 0
        self._points = [p for i, p in enumerate(self._points) if i not in doomed]
        self._counts = [c for i, c in enumerate(self._counts) if i not in doomed]
        self.invalidate_index()
        return len(doomed)

    def clear(self) -> None:
        """Remove every representative in place."""
        self._points.clear()
        self._counts.clear()
        self.invalidate_index()

    def invalidate_index(self) -> None:
        """Drop the points-matrix cache; the next read rebuilds it from
        ``_points``.

        External bulk mutators of ``_points`` must call this (or set
        ``_matrix`` to ``None``): the row-count check in :attr:`points`
        cannot detect a same-count replacement.
        """
        self._matrix = None

    def compression_ratio(self) -> float:
        """Raw samples per representative (>= 1.0; higher = more savings)."""
        if not self._points:
            return 1.0
        return float(sum(self._counts) / len(self._points))
