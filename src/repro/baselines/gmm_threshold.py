"""GMM threshold-learning contention detector (gmmfense-style).

The fifth baseline is the per-utilization-bin Gaussian-mixture
threshold learner popularized by Intel's platform-resource-manager
(``gmmfense.py``): bin the sensitive application's observed CPU
utilization, fit a small 1-D Gaussian mixture over each
contention-correlated metric inside each bin, and place a violation
"fence" at the boundary of the highest-mean (outlier) component. A
metric reading beyond its fence for the current utilization bin is a
contention verdict; the verdict drives the same pause/resume actuation
surface as the other baselines.

Unlike Stay-Away this detector learns *per-metric scalar thresholds*,
not geometry over the joint state — comparing the two (see
``experiments/headtohead.py``) is the first head-to-head against a
production-grade resource-manager detector rather than an academic
comparison system.

Three layers, configured by one :class:`GmmSettings`:

* :func:`fit_gmm_1d` / :func:`select_gmm` / :func:`fence_threshold` —
  seeded, pure-NumPy EM with BIC model selection (no sklearn), fully
  deterministic given ``(data, seed)``.
* :class:`GmmThresholdModel` — the learner: per-(metric, bin) sample
  buffers, periodic refits, fence thresholds, vote quorum. Duck-typed
  for the Stay-Away controller's ``aux_detector`` seam (``bind`` /
  ``update``), so ``core`` never imports this module.
* :class:`GmmThresholdDetector` — the standalone baseline middleware:
  model + QoS tracker + pause/resume actuation with a clear-verdict
  cooldown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.monitoring.collector import MetricsCollector
from repro.monitoring.qos import QosTracker

if TYPE_CHECKING:
    from repro.sim.host import Host, HostSnapshot
    from repro.workloads.base import Application

#: Variance floor relative to the squared data scale (EM must never
#: collapse a component onto a single point).
_VAR_FLOOR_REL = 1e-8
_VAR_FLOOR_ABS = 1e-12


@dataclass(frozen=True)
class GaussianMixture1D:
    """A fitted 1-D Gaussian mixture, components sorted by mean.

    Attributes
    ----------
    weights / means / variances:
        ``(k,)`` component parameters, ascending by mean.
    log_likelihood:
        Total data log-likelihood at convergence.
    n_samples:
        Number of samples the mixture was fitted on.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood: float
    n_samples: int

    @property
    def k(self) -> int:
        """Number of components."""
        return int(len(self.weights))

    def bic(self) -> float:
        """Bayesian information criterion (lower is better).

        A ``k``-component 1-D mixture has ``3k - 1`` free parameters
        (``k`` means, ``k`` variances, ``k - 1`` independent weights).
        """
        params = 3 * self.k - 1
        return params * math.log(max(self.n_samples, 1)) - 2.0 * self.log_likelihood


def _log_gauss(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)


def fit_gmm_1d(
    samples: Sequence[float],
    k: int,
    seed: int = 0,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> GaussianMixture1D:
    """Fit a ``k``-component 1-D Gaussian mixture by EM.

    Deterministic given ``(samples, k, seed)``: means initialize at the
    data quantiles with a tiny seeded jitter to break exact ties, and
    the EM iteration order is fixed — two fits with the same inputs are
    bit-identical.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.asarray(list(samples), dtype=float)
    if x.size < k:
        raise ValueError(f"need at least {k} samples to fit {k} components, got {x.size}")
    scale = float(x.std())
    var_floor = max(_VAR_FLOOR_REL * scale * scale, _VAR_FLOOR_ABS)

    rng = np.random.default_rng(seed + 1009 * k)
    means = np.quantile(x, (np.arange(k) + 0.5) / k)
    means = means + rng.normal(0.0, max(scale, 1.0) * 1e-9, size=k)
    variances = np.full(k, max(scale * scale, var_floor))
    weights = np.full(k, 1.0 / k)

    log_likelihood = -np.inf
    for _ in range(max_iter):
        # E step in log space: (k, n) responsibilities.
        log_prob = np.stack(
            [
                np.log(weights[j]) + _log_gauss(x, means[j], variances[j])
                for j in range(k)
            ]
        )
        log_norm = np.logaddexp.reduce(log_prob, axis=0)
        new_ll = float(log_norm.sum())
        resp = np.exp(log_prob - log_norm)

        # M step.
        counts = resp.sum(axis=1)
        counts = np.maximum(counts, 1e-12)
        weights = counts / x.size
        means = (resp @ x) / counts
        variances = (resp @ (x**2)) / counts - means**2
        variances = np.maximum(variances, var_floor)

        if abs(new_ll - log_likelihood) <= tol * (1.0 + abs(new_ll)):
            log_likelihood = new_ll
            break
        log_likelihood = new_ll

    order = np.argsort(means, kind="stable")
    return GaussianMixture1D(
        weights=weights[order],
        means=means[order],
        variances=variances[order],
        log_likelihood=log_likelihood,
        n_samples=int(x.size),
    )


def select_gmm(
    samples: Sequence[float], max_components: int = 3, seed: int = 0
) -> GaussianMixture1D:
    """Fit ``k = 1..max_components`` mixtures and keep the lowest BIC.

    The candidate count is additionally capped by the number of
    distinct sample values (a degenerate constant buffer always fits a
    single component).
    """
    x = np.asarray(list(samples), dtype=float)
    if x.size == 0:
        raise ValueError("cannot fit a mixture on an empty sample buffer")
    distinct = int(np.unique(x).size)
    cap = max(1, min(max_components, distinct, x.size))
    best: Optional[GaussianMixture1D] = None
    for k in range(1, cap + 1):
        candidate = fit_gmm_1d(x, k, seed=seed)  # sacheck: disable=SA201 -- seeded local rng; the jittered EM init IS the fit, not a state probe
        if best is None or candidate.bic() < best.bic():
            best = candidate
    assert best is not None
    return best


def fence_threshold(gmm: GaussianMixture1D, span: float = 3.0) -> float:
    """The violation fence of a fitted mixture.

    With one component the fence is the classic ``mean + span * std``
    outlier bound. With several, the highest-mean component is treated
    as the contention mode and the fence sits at the upper boundary of
    the next-highest (normal) component, clipped at the contention
    component's mean — readings past it are attributed to contention.
    Weakly monotone non-decreasing in ``span`` by construction.
    """
    if span < 0:
        raise ValueError("span must be non-negative")
    stds = np.sqrt(gmm.variances)
    if gmm.k == 1:
        return float(gmm.means[0] + span * stds[0])
    normal_bound = float(gmm.means[-2] + span * stds[-2])
    return float(min(normal_bound, gmm.means[-1]))


@dataclass(frozen=True)
class GmmSettings:
    """Knobs of the GMM threshold learner and its standalone detector.

    Parameters
    ----------
    bins:
        Utilization bins: the sensitive app's CPU utilization in [0, 1]
        selects one of these bins and each bin learns its own
        per-metric fences.
    max_components:
        Mixture components tried per fit (1..n, lowest BIC wins).
    min_samples:
        Samples a (metric, bin) buffer needs before its first fit.
    refit_interval:
        New samples per (metric, bin) between refits.
    window:
        Rolling sample-buffer cap per (metric, bin).
    span:
        Fence span in standard deviations (gmmfense's ``mean + span *
        std`` bound for unimodal fits / normal-component boundary for
        multimodal ones).
    quorum:
        Metrics that must exceed their fence in the same period for a
        contention verdict.
    metrics:
        Contention-correlated metric kinds judged against fences
        (non-sensitive measurement columns; subset of the monitored
        resource names).
    cooldown:
        Clear-verdict periods before :class:`GmmThresholdDetector`
        resumes paused batch containers.
    """

    bins: int = 5
    max_components: int = 3
    min_samples: int = 40
    refit_interval: int = 20
    window: int = 400
    span: float = 3.0
    quorum: int = 1
    metrics: Tuple[str, ...] = ("cpu", "memory_bw")
    cooldown: int = 10

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if self.max_components < 1:
            raise ValueError("max_components must be >= 1")
        if self.min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        if self.refit_interval < 1:
            raise ValueError("refit_interval must be >= 1")
        if self.window < self.min_samples:
            raise ValueError("window must be >= min_samples")
        if not self.metrics:
            raise ValueError("metrics must name at least one metric kind")
        allowed_metrics = {"cpu", "memory", "memory_bw", "disk_io", "network"}
        unknown = [m for m in self.metrics if m not in allowed_metrics]
        if unknown:
            raise ValueError(
                f"unknown metrics {unknown}; allowed: {sorted(allowed_metrics)}"
            )
        if not 1 <= self.quorum <= len(self.metrics):
            raise ValueError(
                f"quorum must be in [1, {len(self.metrics)}] "
                f"(one vote per configured metric), got {self.quorum}"
            )
        if self.span < 0:
            raise ValueError("span must be non-negative")
        if self.cooldown < 1:
            raise ValueError("cooldown must be >= 1")


class GmmThresholdModel:
    """Per-utilization-bin GMM threshold learner.

    Implements the controller's ``aux_detector`` protocol (``bind`` +
    ``update``) and the introspection surface the head-to-head study
    and the reproducibility gate rely on (:meth:`thresholds`).

    Parameters
    ----------
    settings:
        The learner's knobs (defaults: :class:`GmmSettings`).
    seed:
        Base seed of the per-(metric, bin) EM fits.
    """

    def __init__(
        self, settings: Optional[GmmSettings] = None, seed: int = 0
    ) -> None:
        settings = settings if settings is not None else GmmSettings()
        self.settings = settings
        self.bins = settings.bins
        self.span = settings.span
        self.max_components = settings.max_components
        self.min_samples = settings.min_samples
        self.refit_interval = settings.refit_interval
        self.window = settings.window
        self.quorum = settings.quorum
        self.metric_kinds: Tuple[str, ...] = tuple(settings.metrics)
        self.seed = seed
        self.refit_count = 0
        self.verdict_count = 0
        self._bound = False
        self._util_index: Optional[int] = None
        self._cpu_capacity = 1.0
        # metric kind -> measurement-vector indices summed into its reading
        self._kind_indices: Dict[str, List[int]] = {}
        # (metric kind, bin) -> rolling sample buffer / refit bookkeeping
        self._samples: Dict[Tuple[str, int], List[float]] = {}
        self._since_fit: Dict[Tuple[str, int], int] = {}
        self._thresholds: Dict[Tuple[str, int], float] = {}
        self._mixtures: Dict[Tuple[str, int], GaussianMixture1D] = {}

    # -- aux-detector protocol -------------------------------------------------
    def bind(
        self, labels: Sequence[str], sensitive: str, cpu_capacity: float
    ) -> None:
        """Resolve measurement-vector indices once the layout is known.

        Parameters
        ----------
        labels:
            Flat ``"<vm>:<metric>"`` labels from the metrics collector.
        sensitive:
            VM name of the protected application (its CPU column is the
            utilization signal that selects the bin).
        cpu_capacity:
            Host CPU capacity; normalizes utilization into [0, 1).
        """
        if cpu_capacity <= 0:
            raise ValueError("cpu_capacity must be positive")
        self._cpu_capacity = float(cpu_capacity)
        self._kind_indices = {kind: [] for kind in self.metric_kinds}
        self._util_index = None
        for index, label in enumerate(labels):
            vm, _, metric = label.rpartition(":")
            if vm == sensitive and metric == "cpu":
                self._util_index = index
            if vm != sensitive and metric in self._kind_indices:
                self._kind_indices[metric].append(index)
        if self._util_index is None:
            raise ValueError(
                f"no '{sensitive}:cpu' column in measurement labels {list(labels)}"
            )
        missing = [kind for kind, idx in self._kind_indices.items() if not idx]
        if missing:
            raise ValueError(
                f"no non-sensitive columns for metrics {missing}; "
                f"labels: {list(labels)}"
            )
        self._bound = True

    @property
    def bound(self) -> bool:
        """Whether :meth:`bind` resolved the vector layout."""
        return self._bound

    @property
    def ready(self) -> bool:
        """Whether at least one fence threshold has been learned."""
        return bool(self._thresholds)

    def update(self, tick: int, measurement: np.ndarray) -> bool:
        """Judge the measurement, then learn from it.

        The verdict uses only thresholds fitted on *earlier* samples
        (judge-then-learn), so a run is reproducible tick-for-tick and
        the current reading never trains the fence that judges it.
        """
        verdict = self.verdict(measurement)
        self.observe(tick, measurement)
        return verdict

    # -- learning ----------------------------------------------------------------
    def _features(self, measurement: np.ndarray) -> Tuple[int, Dict[str, float]]:
        if not self._bound:
            raise RuntimeError("GmmThresholdModel.bind must be called first")
        values = np.asarray(measurement, dtype=float)
        utilization = float(values[self._util_index]) / self._cpu_capacity
        utilization = min(max(utilization, 0.0), 1.0)
        bin_index = min(int(utilization * self.bins), self.bins - 1)
        readings = {
            kind: float(values[indices].sum())
            for kind, indices in self._kind_indices.items()
        }
        return bin_index, readings

    def observe(self, tick: int, measurement: np.ndarray) -> None:
        """Add one sample per metric kind to its utilization bin."""
        bin_index, readings = self._features(measurement)
        for kind, value in readings.items():
            key = (kind, bin_index)
            buffer = self._samples.setdefault(key, [])
            buffer.append(value)
            if len(buffer) > self.window:
                del buffer[: len(buffer) - self.window]
            self._since_fit[key] = self._since_fit.get(key, 0) + 1
            enough = len(buffer) >= self.min_samples
            due = key not in self._thresholds or (
                self._since_fit[key] >= self.refit_interval
            )
            if enough and due:
                self._refit(key)

    def _refit(self, key: Tuple[str, int]) -> None:
        kind, bin_index = key
        # Per-key seed offset keeps the streams independent but
        # deterministic (kind order is the configured tuple order).
        kind_rank = self.metric_kinds.index(kind)
        seed = self.seed + 7919 * kind_rank + 104729 * bin_index
        mixture = select_gmm(
            self._samples[key], max_components=self.max_components, seed=seed
        )
        self._mixtures[key] = mixture
        self._thresholds[key] = fence_threshold(mixture, span=self.span)
        self._since_fit[key] = 0
        self.refit_count += 1

    # -- verdict -----------------------------------------------------------------
    def _threshold_for(self, kind: str, bin_index: int) -> Optional[float]:
        """The bin's fence, falling back to the nearest fitted bin.

        gmmfense consults the nearest utilization bin with a learned
        model when the current one is still cold; ties resolve to the
        lower bin.
        """
        exact = self._thresholds.get((kind, bin_index))
        if exact is not None:
            return exact
        fitted = sorted(b for k, b in self._thresholds if k == kind)
        if not fitted:
            return None
        nearest = min(fitted, key=lambda b: (abs(b - bin_index), b))
        return self._thresholds[(kind, nearest)]

    def verdict(self, measurement: np.ndarray) -> bool:
        """Whether the reading looks like contention under the fences."""
        bin_index, readings = self._features(measurement)
        votes = 0
        judged = 0
        for kind, value in readings.items():
            threshold = self._threshold_for(kind, bin_index)
            if threshold is None:
                continue
            judged += 1
            if value > threshold:
                votes += 1
        detected = judged > 0 and votes >= self.quorum
        if detected:
            self.verdict_count += 1
        return detected

    # -- introspection -----------------------------------------------------------
    def thresholds(self) -> Dict[str, float]:
        """Learned fences keyed ``"<metric>/<bin>"`` (reproducibility gate)."""
        return {
            f"{kind}/{bin_index}": value
            for (kind, bin_index), value in sorted(self._thresholds.items())
        }

    def mixture(self, kind: str, bin_index: int) -> Optional[GaussianMixture1D]:
        """The fitted mixture behind one fence (None while cold)."""
        return self._mixtures.get((kind, bin_index))

    def summary(self) -> dict:
        """Headline counters for reports and tests."""
        return {
            "bins": self.bins,
            "metrics": list(self.metric_kinds),
            "fitted_fences": len(self._thresholds),
            "refits": self.refit_count,
            "verdicts": self.verdict_count,
        }


class GmmThresholdDetector:
    """The standalone GMM threshold baseline (middleware).

    Observes the host through its own metrics collector, learns fences
    with a :class:`GmmThresholdModel`, and drives the same
    pause/resume actuation surface as the other baselines: a contention
    verdict pauses every running batch container; ``settings.cooldown``
    consecutive clear periods resume them.

    Parameters
    ----------
    sensitive_app:
        The protected application (its QoS reports are tracked for
        scoring; the detector itself never reads them — it is a pure
        threshold learner).
    settings / seed:
        Handed to the :class:`GmmThresholdModel`.
    period:
        Judge and learn every ``period`` ticks.
    aggregate_batch:
        Treat all batch containers as one logical VM (§5).
    actuate:
        When False the detector only records alarms (shadow mode for
        the head-to-head study); ``experiments.runner`` wires
        ``config.enabled`` here.
    """

    def __init__(
        self,
        sensitive_app: Application,
        settings: Optional[GmmSettings] = None,
        seed: int = 0,
        period: int = 1,
        aggregate_batch: bool = True,
        actuate: bool = True,
    ) -> None:
        self.sensitive_app = sensitive_app
        self.qos = QosTracker(sensitive_app)
        self.collector = MetricsCollector(aggregate_batch=aggregate_batch)
        self.model = GmmThresholdModel(settings, seed=seed)
        self.period = period
        self.actuate = actuate
        self.alarm_ticks: List[int] = []
        self.throttle_count = 0
        self.resume_count = 0
        self._paused: List[str] = []
        self._clear_periods = 0

    def on_tick(self, snapshot: HostSnapshot, host: Host) -> None:
        """Sample, judge, learn, and (when actuating) pause/resume."""
        observation = host.observe(snapshot)
        self.collector.on_tick(observation)
        self.qos.on_tick(snapshot, host)
        if snapshot.tick % self.period != 0:
            return
        if not self.model.bound:
            # Collector labels carry *container* names, which need not
            # match the protected application's own name.
            self.model.bind(
                self.collector.labels,
                observation.container_of(self.sensitive_app)
                or self.sensitive_app.name,
                observation.capacity[0],
            )
        detected = self.model.update(snapshot.tick, self.collector.latest.values)
        if detected:
            self.alarm_ticks.append(snapshot.tick)
        if not self.actuate:
            return
        self._actuate(snapshot.tick, host, detected)

    def _actuate(self, tick: int, host: Host, detected: bool) -> None:
        if self._paused:
            still_paused = [
                name
                for name in self._paused
                if name in host.containers and host.container(name).is_paused
            ]
            if not still_paused:
                self._paused = []
                self._clear_periods = 0
            elif detected:
                # Contention persists: restart the clear-verdict count.
                self._clear_periods = 0
                return
            else:
                self._clear_periods += 1
                if self._clear_periods >= self.model.settings.cooldown:
                    for name in still_paused:
                        host.resume_container(name)
                    self.resume_count += 1
                    self._paused = []
                    self._clear_periods = 0
                return

        if not detected:
            return
        targets = [
            container.name
            for container in host.batch_containers()
            if container.is_running and not container.app.finished
        ]
        if not targets:
            return
        for name in targets:
            host.pause_container(name)
        self._paused = targets
        self._clear_periods = 0
        self.throttle_count += 1

    def summary(self) -> dict:
        """Headline counters for reports and tests."""
        return {
            "alarms": len(self.alarm_ticks),
            "throttles": self.throttle_count,
            "resumes": self.resume_count,
            "violations_observed": self.qos.violation_count,
            "model": self.model.summary(),
        }
