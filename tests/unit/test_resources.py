"""Unit tests for resource vectors."""

import pytest

from repro.sim.resources import (
    RATE_RESOURCES,
    Resource,
    ResourceVector,
    default_host_capacity,
    sum_vectors,
)


class TestResourceVector:
    def test_zero(self):
        assert ResourceVector.zero().is_zero()

    def test_default_is_zero(self):
        assert ResourceVector() == ResourceVector.zero()

    def test_get_by_resource(self):
        vec = ResourceVector(cpu=1.5, memory=256.0)
        assert vec.get(Resource.CPU) == 1.5
        assert vec.get(Resource.MEMORY) == 256.0
        assert vec.get(Resource.NETWORK) == 0.0

    def test_addition(self):
        a = ResourceVector(cpu=1.0, memory=10.0)
        b = ResourceVector(cpu=0.5, disk_io=3.0)
        c = a + b
        assert c.cpu == 1.5
        assert c.memory == 10.0
        assert c.disk_io == 3.0

    def test_subtraction(self):
        a = ResourceVector(cpu=2.0)
        b = ResourceVector(cpu=0.5)
        assert (a - b).cpu == 1.5

    def test_scaled(self):
        vec = ResourceVector(cpu=2.0, network=100.0).scaled(0.5)
        assert vec.cpu == 1.0
        assert vec.network == 50.0

    def test_clamped_removes_negatives(self):
        vec = ResourceVector(cpu=-1.0, memory=5.0).clamped()
        assert vec.cpu == 0.0
        assert vec.memory == 5.0

    def test_capped_by(self):
        demand = ResourceVector(cpu=8.0, memory=100.0)
        limits = ResourceVector(cpu=2.0, memory=500.0, memory_bw=1.0,
                                disk_io=1.0, network=1.0)
        capped = demand.capped_by(limits)
        assert capped.cpu == 2.0
        assert capped.memory == 100.0

    def test_replace(self):
        vec = ResourceVector(cpu=1.0)
        out = vec.replace(Resource.MEMORY, 42.0)
        assert out.memory == 42.0
        assert out.cpu == 1.0
        assert vec.memory == 0.0  # original unchanged (frozen)

    def test_items_order_is_canonical(self):
        resources = [resource for resource, _ in ResourceVector().items()]
        assert resources == list(Resource)

    def test_immutability(self):
        vec = ResourceVector(cpu=1.0)
        with pytest.raises(AttributeError):
            vec.cpu = 2.0

    def test_is_zero_tolerance(self):
        assert ResourceVector(cpu=1e-15).is_zero()
        assert not ResourceVector(cpu=1e-3).is_zero()


class TestHelpers:
    def test_sum_vectors_empty(self):
        assert sum_vectors([]).is_zero()

    def test_sum_vectors(self):
        total = sum_vectors(
            [ResourceVector(cpu=1.0), ResourceVector(cpu=2.0, memory=7.0)]
        )
        assert total.cpu == 3.0
        assert total.memory == 7.0

    def test_rate_resources_exclude_memory(self):
        assert Resource.MEMORY not in RATE_RESOURCES
        assert Resource.CPU in RATE_RESOURCES
        assert len(RATE_RESOURCES) == 4

    def test_default_capacity_matches_paper_testbed(self):
        capacity = default_host_capacity()
        assert capacity.cpu == 4.0  # 4-core i5 (paper §7)
        assert capacity.memory == 8192.0
        for _, value in capacity.items():
            assert value > 0
