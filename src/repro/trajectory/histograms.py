"""Empirical distributions: histograms with inverse-transform sampling.

"The underlying measurement is a histogram. ... A random set of samples
are then generated following the histogram using the inverse transform
method, which computes a mapping from a uniform distribution to an
arbitrary distribution" (§3.2.3).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from math import fsum, isfinite
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np


def _bin_index(value: float, low: float, width: float, bins: int) -> int:
    """``(value - low) / width`` clamped into ``[0, bins - 1]``, then truncated.

    Clamping first keeps a quotient beyond the integer range (``-inf``
    over a subnormal ``width``) in its edge bin; a NaN fails both
    comparisons and raises ``ValueError`` from ``int``.
    """
    scaled = (value - low) / width
    if scaled >= bins - 1:
        return bins - 1
    if scaled <= 0:
        return 0
    return int(scaled)


class Histogram:
    """A fixed-range histogram with inverse-transform sampling.

    Parameters
    ----------
    low / high:
        Support of the distribution; out-of-range observations are
        clipped into the edge bins.
    bins:
        Number of equal-width bins.
    """

    def __init__(self, low: float, high: float, bins: int = 16) -> None:
        if high <= low:
            raise ValueError(f"need high > low, got [{low}, {high}]")
        if bins < 1:
            raise ValueError("bins must be >= 1")
        self.low = float(low)
        self.high = float(high)
        self.bins = bins
        self.counts = np.zeros(bins, dtype=float)
        self.edges = np.linspace(low, high, bins + 1)

    @classmethod
    def _from_counts(
        cls, low: float, high: float, counts: np.ndarray, edges: np.ndarray
    ) -> "Histogram":
        """A histogram over already-binned data; ``edges`` is shared, not copied.

        Parameters
        ----------
        counts:
            ``(B,)`` per-bin weights.
        edges:
            ``(B + 1,)`` bin edges, ``np.linspace(low, high, B + 1)``.
        """
        hist = cls.__new__(cls)
        hist.low = float(low)
        hist.high = float(high)
        hist.bins = int(counts.size)
        hist.counts = counts
        hist.edges = edges
        return hist

    @property
    def total(self) -> float:
        """Total observation weight."""
        return float(self.counts.sum())

    def bin_of(self, value: float) -> int:
        """Bin index for a value (edge bins absorb out-of-range values)."""
        width = (self.high - self.low) / self.bins
        return _bin_index(value, self.low, width, self.bins)

    def add(self, value: float, weight: float = 1.0) -> None:
        """Record one observation."""
        if weight < 0:
            raise ValueError("weight must be non-negative")
        self.counts[self.bin_of(value)] += weight

    def probabilities(self) -> np.ndarray:
        """Per-bin probability mass (uniform when nothing observed yet)."""
        total = self.total
        if total <= 0:
            return np.full(self.bins, 1.0 / self.bins)
        return self.counts / total

    def cdf(self) -> np.ndarray:
        """Cumulative distribution over bins (last entry == 1)."""
        cdf = np.cumsum(self.probabilities())
        cdf[-1] = 1.0
        return cdf

    def inverse_transform(
        self, u_bin: Sequence[float], u_offset: Sequence[float]
    ) -> List[float]:
        """Map uniforms to samples: ``u_bin`` -> bin via CDF, ``u_offset`` -> place in bin.

        ``u`` maps to the first bin whose cumulative mass strictly
        exceeds it (``bisect_right``). With the leftmost match,
        ``u == 0.0`` (reachable — ``rng.uniform`` draws from the
        half-open ``[0, 1)``) and any ``u`` landing exactly on a CDF
        plateau selected a zero-mass bin.

        A few bins, a handful of uniforms: the map runs on Python
        floats. ``accumulate`` makes the additions of ``np.cumsum``, and
        a total of unit-weight counts is exact in any order (fractional
        :meth:`add` weights get ``fsum``'s correctly rounded one).

        Parameters
        ----------
        u_bin / u_offset:
            ``N`` uniforms in ``[0, 1)`` each: any sequence of floats.

        Returns the ``N`` samples as a list of floats.
        """
        counts = self.counts.tolist()
        total = fsum(counts)
        if total <= 0:
            masses = [1.0 / self.bins] * self.bins
        else:
            masses = [count / total for count in counts]
        cdf = list(accumulate(masses))
        cdf[-1] = 1.0
        edges = self.edges.tolist()
        # bisect never goes below 0; only u_bin >= 1 could overshoot.
        last = self.bins - 1
        samples = []
        for u, offset in zip(u_bin, u_offset):
            index = min(bisect_right(cdf, u), last)
            left = edges[index]
            samples.append(left + offset * (edges[index + 1] - left))
        return samples

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """``n`` inverse-transform samples: a bin draw, then an offset draw."""
        if n < 1:
            raise ValueError("n must be >= 1")
        u_bin = rng.uniform(0.0, 1.0, size=n).tolist()
        u_offset = rng.uniform(0.0, 1.0, size=n).tolist()
        return np.array(self.inverse_transform(u_bin, u_offset))

    def skewness(self) -> float:
        """Sample skewness of the binned distribution (bias check).

        The paper reads a skewed pdf as evidence that the trajectory is
        biased rather than uniformly random (§3.2.3).
        """
        probabilities = self.probabilities()
        centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        mean = float(np.sum(probabilities * centers))
        variance = float(np.sum(probabilities * (centers - mean) ** 2))
        if variance <= 0:
            return 0.0
        third = float(np.sum(probabilities * (centers - mean) ** 3))
        return third / variance**1.5


class EmpiricalDistribution:
    """A windowed sample store that exposes a histogram view.

    Keeps the most recent ``window`` raw observations (applications
    drift; old phases should age out) and exposes the histogram over
    the observed range on demand.

    The window is the slice ``[_end - _size, _end)`` of a float64
    buffer twice its length: :meth:`add` writes at ``_end`` and, when
    the buffer is used up, moves the newest ``window - 1`` values back
    to the front — O(1) amortized, and the window stays one
    contiguous, chronological run that NumPy can read without a copy.

    One value enters and at most one leaves per :meth:`add`, so the
    per-bin counts of the last :meth:`histogram` and the number of
    non-finite values in the window are kept current there. The counts
    are dropped — and the next :meth:`histogram` bins the whole window
    once — whenever an inferred bound of the support may have moved (a
    new extreme, the eviction of the current one, a widened degenerate
    support), on :meth:`extend` / :meth:`clear`, and on any non-finite
    value. :attr:`samples` is read-only, so those three methods are
    the window's only writers.

    Parameters
    ----------
    window:
        Maximum retained observations.
    bins:
        Histogram resolution.
    low / high:
        Optional fixed support; inferred from the data when omitted.
    """

    def __init__(
        self,
        window: int = 400,
        bins: int = 16,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if bins < 1:
            raise ValueError("bins must be >= 1")
        self.window = window
        self.bins = bins
        self.fixed_low = low
        self.fixed_high = high
        self._buffer = np.empty(2 * window)
        self._size = 0
        self._end = 0
        #: Bin edges of the last histogram and the support they span;
        #: reused until the support moves (never, for a fixed one).
        self._edges: Optional[np.ndarray] = None
        self._edges_support: Optional[Tuple[float, float]] = None
        #: ``(B,)`` float counts of the window over ``_edges_support``,
        #: or None when the next histogram has to bin the window.
        self._counts: Optional[np.ndarray] = None
        self._nonfinite = 0
        self._rebins = 0

    def __len__(self) -> int:
        return self._size

    def add(self, value: float) -> None:
        """Record one observation (evicting the oldest from a full window)."""
        value = float(value)
        evicted = None
        if self._size == self.window:
            evicted = self._buffer.item(self._end - self._size)
        if self._end == self._buffer.size:
            keep = min(self._size, self.window - 1)
            self._buffer[:keep] = self._buffer[self._end - keep : self._end]
            self._end = keep
        self._buffer[self._end] = value
        self._end += 1
        self._size = min(self._size + 1, self.window)

        if self._nonfinite and evicted is not None and not isfinite(evicted):
            self._nonfinite -= 1
        if not isfinite(value):
            self._nonfinite += 1
            self._counts = None
        counts = self._counts
        if counts is None:
            return
        # Live counts mean a finite window: ``evicted`` is finite too.
        low, high = self._edges_support
        if (
            self.fixed_low is None
            and (value < low or evicted == low)
            or self.fixed_high is None
            and (value > high or evicted == high)
        ):
            self._counts = None
            return
        width = (high - low) / self.bins
        counts[_bin_index(value, low, width, self.bins)] += 1.0
        if evicted is not None:
            counts[_bin_index(evicted, low, width, self.bins)] -= 1.0

    def extend(self, values: Union[Sequence[float], np.ndarray]) -> None:
        """Record observations in order, as repeated :meth:`add` would.

        Parameters
        ----------
        values:
            ``(K,)`` observations, oldest first.
        """
        incoming = np.asarray(values, dtype=float)
        if incoming.ndim != 1:
            raise ValueError(f"expected a 1-D sequence, got shape {incoming.shape}")
        kept = np.concatenate([self.samples, incoming])[-self.window :]
        self._buffer[: kept.size] = kept
        self._size = self._end = kept.size
        self._counts = None
        self._nonfinite = kept.size - int(np.count_nonzero(np.isfinite(kept)))

    def clear(self) -> None:
        """Forget every observation."""
        self._size = self._end = 0
        self._counts = None
        self._nonfinite = 0

    @property
    def samples(self) -> np.ndarray:
        """The window, oldest first: a read-only ``(W,)`` view, ``W = len(self)``.

        Zero-copy — valid until the next :meth:`add` / :meth:`extend` /
        :meth:`clear`; copy it to keep it.
        """
        view = self._buffer[self._end - self._size : self._end]
        view.flags.writeable = False
        return view

    @property
    def finite(self) -> bool:
        """True when the window holds no NaN and no infinity (O(1))."""
        return not self._nonfinite

    def _support(self) -> Tuple[float, float, bool]:
        """:meth:`support` and whether :meth:`add` can tell when it moves.

        It can while each inferred bound is an extreme of the data
        (then only a new or an evicted extreme moves it); not for an
        empty window's placeholder or a widened degenerate range.
        """
        if self.fixed_low is not None and self.fixed_high is not None:
            return self.fixed_low, self.fixed_high, True
        if not self._size:
            return 0.0, 1.0, False
        values = self.samples
        low = self.fixed_low if self.fixed_low is not None else float(values.min())
        high = self.fixed_high if self.fixed_high is not None else float(values.max())
        if high <= low:
            return low, low + max(abs(low) * 1e-6, 1e-9), False
        return low, high, True

    def support(self) -> Tuple[float, float]:
        """The histogram support (fixed bounds or observed range)."""
        return self._support()[:2]

    def histogram(self) -> Histogram:
        """Materialize the current histogram.

        The counts are those :meth:`add` kept current, or — after
        anything that dropped them — one vectorised pass: clamping
        ``(value - low) / width`` into ``[0, bins - 1]`` and truncating
        is :meth:`Histogram.bin_of` applied to the whole ``(W,)``
        window, so either way they equal those of ``W`` scalar
        :meth:`Histogram.add` calls. The returned histogram owns its
        counts and shares its read-only ``edges`` with the others drawn
        from this distribution while the support stays put.

        Raises
        ------
        ValueError
            If the window holds a NaN or an infinity.
        ZeroDivisionError
            If the support is so narrow that the bin width underflows
            to zero (as :meth:`Histogram.bin_of` does).
        """
        if self._nonfinite:
            raise ValueError("non-finite sample in the window")
        counts = self._counts
        if counts is None:
            counts = self._rebin()
        low, high = self._edges_support
        return Histogram._from_counts(low, high, counts.copy(), self._edges)

    def _rebin(self) -> np.ndarray:
        """Bin the whole (finite) window; returns the ``(B,)`` counts.

        Keeps them for :meth:`add` to maintain when it will be able to
        tell that the support moved.
        """
        low, high, tracked = self._support()
        support = (low, high)
        if self._edges is None or support != self._edges_support:
            edges = Histogram(low, high, bins=self.bins).edges
            edges.flags.writeable = False
            self._edges, self._edges_support = edges, support
        width = (high - low) / self.bins
        if width <= 0.0:
            # A subnormal support: the scalar division raises too.
            raise ZeroDivisionError("histogram support too narrow to bin")
        # Clamp before truncating: a quotient beyond the integer range
        # has no defined cast, and clamping commutes with truncation.
        scaled = (self.samples - low) / width
        np.minimum(scaled, self.bins - 1, out=scaled)
        np.maximum(scaled, 0, out=scaled)
        counts = np.bincount(scaled.astype(np.intp), minlength=self.bins).astype(float)
        self._rebins += 1
        if tracked:
            self._counts = counts
        return counts

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Inverse-transform samples from the current histogram.

        With zero observations this returns zeros and draws nothing
        (the caller is expected to check :meth:`ready` for meaningful
        predictions).
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if not self._size:
            return np.zeros(n)
        return self.histogram().sample(rng, n)

    def ready(self, minimum: int = 3) -> bool:
        """True once enough observations exist for a first approximation.

        "after a few observations have been made, a first approximation
        of the pdfs for both parameters can be derived" (§3.2.3).
        """
        return self._size >= minimum

    def mean(self) -> float:
        if not self._size:
            return 0.0
        # What ``ndarray.mean`` runs: the pairwise sum, then one division.
        return float(np.add.reduce(self.samples) / self._size)
