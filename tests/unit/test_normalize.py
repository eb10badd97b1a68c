"""Unit tests for metric normalization."""

from dataclasses import astuple

import numpy as np
import pytest

from repro.monitoring.normalize import CapacityNormalizer
from repro.sim.resources import ResourceVector, default_host_capacity


class TestCapacityNormalizer:
    def test_dimension(self):
        normalizer = CapacityNormalizer(astuple(default_host_capacity()), vm_count=2)
        assert normalizer.dimension == 10

    def test_vm_count_validated(self):
        with pytest.raises(ValueError):
            CapacityNormalizer(astuple(default_host_capacity()), vm_count=0)

    def test_zero_capacity_rejected(self):
        capacity = ResourceVector(cpu=4.0)  # others zero
        with pytest.raises(ValueError):
            CapacityNormalizer(astuple(capacity), vm_count=1)

    def test_full_capacity_maps_to_one(self):
        capacity = default_host_capacity()
        normalizer = CapacityNormalizer(astuple(capacity), vm_count=1)
        values = np.array([capacity.cpu, capacity.memory, capacity.memory_bw,
                           capacity.disk_io, capacity.network])
        np.testing.assert_allclose(normalizer.normalize(values), np.ones(5))

    def test_zero_maps_to_zero(self):
        normalizer = CapacityNormalizer(astuple(default_host_capacity()), vm_count=1)
        np.testing.assert_allclose(normalizer.normalize(np.zeros(5)), np.zeros(5))

    def test_clipping_above_capacity(self):
        capacity = default_host_capacity()
        normalizer = CapacityNormalizer(astuple(capacity), vm_count=1)
        values = np.full(5, 1e9)
        assert normalizer.normalize(values).max() == 1.0

    def test_wrong_dimension_rejected(self):
        normalizer = CapacityNormalizer(astuple(default_host_capacity()), vm_count=1)
        with pytest.raises(ValueError):
            normalizer.normalize(np.zeros(7))

    def test_per_vm_blocks_scaled_identically(self):
        capacity = default_host_capacity()
        normalizer = CapacityNormalizer(astuple(capacity), vm_count=2)
        values = np.array([2.0, 4096.0, 5000.0, 75.0, 500.0] * 2)
        out = normalizer.normalize(values)
        np.testing.assert_allclose(out[:5], out[5:])
        np.testing.assert_allclose(out[:5], np.full(5, 0.5))
