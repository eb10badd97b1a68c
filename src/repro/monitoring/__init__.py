"""Monitoring: per-VM metric collection, normalization and QoS tracking.

Stay-Away "periodically monitors the resource usage metrics of every
Virtual Machine in the host, yielding a time series of measurement
vectors" (§1). This package implements that agent:

* :class:`~repro.monitoring.collector.MetricsCollector` — samples each
  container's usage into a flat :class:`~repro.monitoring.metrics.MeasurementVector`
  (optionally aggregating all batch containers into one logical VM, §5);
* :class:`~repro.monitoring.normalize.CapacityNormalizer` — the
  paper's [0, 1] metric normalization (§4);
* :class:`~repro.monitoring.qos.QosTracker` — the application-reported
  QoS/violation channel (§3.1);
* :class:`~repro.monitoring.guard.SensorGuard` — validates each
  measurement vector (NaN/Inf, negatives, implausible spikes, frozen
  counters) and imputes rejected samples from the last good value;
* :class:`~repro.monitoring.timeseries.Series` — lightweight numeric
  series used throughout analysis.
"""

from repro.monitoring.collector import MetricsCollector
from repro.monitoring.guard import GuardVerdict, RejectReason, SensorGuard
from repro.monitoring.ipc import IpcViolationDetector
from repro.monitoring.metrics import MeasurementVector, metric_labels
from repro.monitoring.normalize import CapacityNormalizer, Normalizer
from repro.monitoring.qos import QosTracker
from repro.monitoring.timeseries import Series

__all__ = [
    "CapacityNormalizer",
    "GuardVerdict",
    "IpcViolationDetector",
    "MeasurementVector",
    "MetricsCollector",
    "Normalizer",
    "QosTracker",
    "RejectReason",
    "SensorGuard",
    "Series",
    "metric_labels",
]
