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

from repro.mds.distances import point_distances


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
        self._matrix: Optional[np.ndarray] = None  # lazily rebuilt cache

    def __len__(self) -> int:
        return len(self._points)

    @property
    def counts(self) -> np.ndarray:
        """Number of raw samples absorbed by each representative."""
        return np.asarray(self._counts, dtype=int)

    @property
    def points(self) -> np.ndarray:
        """``(n_representatives, dimension)`` matrix of representatives."""
        if not self._points:
            return np.empty((0, self.dimension or 0))
        if self._matrix is None or self._matrix.shape[0] != len(self._points):
            self._matrix = np.vstack(self._points)
        return self._matrix

    def nearest(self, sample: np.ndarray) -> Tuple[int, float]:
        """Index of and distance to the nearest representative.

        Raises ``RuntimeError`` when the set is empty.
        """
        if not self._points:
            raise RuntimeError("representative set is empty")
        distances = point_distances(np.asarray(sample, float), self.points)
        index = int(np.argmin(distances))
        return index, float(distances[index])

    def assign(self, sample: np.ndarray) -> Tuple[int, bool]:
        """Insert a sample; return ``(representative_index, is_new)``.

        ``is_new`` is True when the sample opened a new epsilon-ball
        (and therefore needs a fresh 2-D placement downstream).
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

        self._points.append(sample.copy())
        self._counts.append(1)
        self._matrix = None
        return len(self._points) - 1, True

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
        """Drop the points-matrix cache.

        External bulk mutators of ``_points`` must call this: the
        row-count check in :attr:`points` cannot detect a same-count
        replacement.
        """
        self._matrix = None

    def distances_from(self, sample: np.ndarray) -> np.ndarray:
        """High-dimensional distances from a sample to every representative."""
        if not self._points:
            return np.empty(0)
        return point_distances(np.asarray(sample, float), self.points)

    def compression_ratio(self) -> float:
        """Raw samples per representative (>= 1.0; higher = more savings)."""
        if not self._points:
            return 1.0
        return float(sum(self._counts) / len(self._points))
