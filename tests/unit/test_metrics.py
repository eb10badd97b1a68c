"""Unit tests for measurement vectors and metric labels."""

import numpy as np
import pytest

from repro.monitoring.metrics import VM_METRICS, MeasurementVector, metric_labels
from repro.sim.resources import Resource


class TestMetricLabels:
    def test_five_metrics_per_vm(self):
        labels = metric_labels(["vm1", "vm2"])
        assert len(labels) == 10
        assert labels[0] == "vm1:cpu"
        assert labels[5] == "vm2:cpu"

    def test_vm_metric_order(self):
        assert VM_METRICS[0] == Resource.CPU.value
        assert Resource.MEMORY.value in VM_METRICS
        assert len(VM_METRICS) == 5

    def test_empty(self):
        assert metric_labels([]) == []


class TestMeasurementVector:
    def make(self):
        labels = tuple(metric_labels(["vm"]))
        return MeasurementVector(
            tick=3, labels=labels, values=np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        )

    def test_dimension(self):
        assert self.make().dimension == 5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MeasurementVector(tick=0, labels=("a",), values=np.array([1.0, 2.0]))
