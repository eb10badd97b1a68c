"""The metric registry: counters, gauges and histograms.

The controller's self-telemetry substrate (§4's "negligible overhead"
claim needs a baseline to regress against). Three metric types cover
everything the runtime wants to report about itself:

* :class:`Counter` — monotonically increasing totals (throttles fired,
  samples rejected, SMACOF refits);
* :class:`Gauge` — instantaneous values that move both ways (state-space
  size, the learned beta);
* :class:`Histogram` — bucketed distributions of observations (per-stage
  wall-clock seconds, prediction votes).

A :class:`MetricRegistry` owns one instance per ``(name, labels)`` pair
with get-or-create semantics, so instrumentation sites never have to
coordinate — asking for the same metric twice returns the same object.
Everything is plain-Python and allocation-free on the hot path: a
counter increment is one float add, a histogram observation one
``bisect`` plus a handful of float updates.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

#: Default histogram buckets, tuned for stage timings in seconds
#: (microseconds up to ~1 s; everything slower lands in +Inf).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3,
    1e-2, 5e-2, 1e-1, 5e-1, 1.0,
)

#: Canonical label form: sorted ``(key, value)`` pairs.
LabelPairs = Tuple[Tuple[str, str], ...]


def _canonical_labels(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    """Sorted, stringified label pairs (hashable registry key part)."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_key(name: str, labels: LabelPairs) -> str:
    """Human/Prometheus-style metric key: ``name{k="v",...}``."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Metric:
    """Common base: identity (name, labels, help text) of one metric."""

    kind = "metric"

    def __init__(self, name: str, help: str = "", labels: LabelPairs = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels

    @property
    def key(self) -> str:
        """The rendered ``name{labels}`` identity string."""
        return render_key(self.name, self.labels)


class Counter(Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: LabelPairs = ()) -> None:
        super().__init__(name, help, labels)
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        self.value += amount


class Gauge(Metric):
    """An instantaneous value that can move in both directions."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: LabelPairs = ()) -> None:
        super().__init__(name, help, labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self.value += amount


class Histogram(Metric):
    """A bucketed distribution of observations.

    Parameters
    ----------
    buckets:
        Strictly increasing finite upper bounds; an implicit ``+Inf``
        bucket catches the tail. Defaults to :data:`DEFAULT_BUCKETS`
        (tuned for seconds-scale stage timings).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: LabelPairs = (),
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram {name} buckets must strictly increase")
        self.bounds = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count: int = 0
        self.sum: float = 0.0
        self.min: float = float("inf")
        self.max: float = float("-inf")
        self.last: float = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        self.last = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def mean(self) -> float:
        """Arithmetic mean of all observations (0 before the first)."""
        return self.sum / self.count if self.count else 0.0

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style ``(le, cumulative_count)`` pairs, +Inf last."""
        pairs: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            pairs.append((bound, running))
        pairs.append((float("inf"), self.count))
        return pairs

    def summary(self) -> Dict[str, float]:
        """``count/sum/mean/min/max/last`` as a plain dict."""
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean(),
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "last": self.last,
        }


AnyMetric = Union[Counter, Gauge, Histogram]


class MetricRegistry:
    """Get-or-create store of metrics keyed by ``(name, labels)``.

    Asking twice for the same name (and labels) returns the same
    object; asking for an existing name with a *different* metric type
    raises — one name means one thing.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelPairs], AnyMetric] = {}

    def _get_or_create(self, cls, name, help, labels, **kwargs) -> AnyMetric:
        key = (name, _canonical_labels(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"requested {cls.kind}"
                )
            return existing
        metric = cls(name, help=help, labels=key[1], **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def get(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[AnyMetric]:
        """Look up a metric without creating it."""
        return self._metrics.get((name, _canonical_labels(labels)))

    def __iter__(self) -> Iterator[AnyMetric]:
        """All metrics, sorted by name then labels."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def __len__(self) -> int:
        return len(self._metrics)
