"""Unit tests for the contention model."""

import pytest

from repro.sim.contention import (
    Allocation,
    ProportionalShareModel,
    WeightedWaterFillModel,
)
from repro.sim.resources import Resource, ResourceVector, default_host_capacity


@pytest.fixture
def model():
    return ProportionalShareModel()


@pytest.fixture
def capacity():
    return default_host_capacity()


class TestAllocation:
    def test_progress_bounds_validated(self):
        with pytest.raises(ValueError):
            Allocation(granted=ResourceVector.zero(), progress=1.5)
        with pytest.raises(ValueError):
            Allocation(granted=ResourceVector.zero(), progress=-0.1)


class TestUncontended:
    def test_empty_demands(self, model, capacity):
        assert model.resolve({}, capacity) == {}

    def test_single_tenant_gets_everything(self, model, capacity):
        demand = ResourceVector(cpu=2.0, memory=1000.0, memory_bw=500.0)
        allocations = model.resolve({"a": demand}, capacity)
        assert allocations["a"].progress == pytest.approx(1.0)
        assert allocations["a"].granted.cpu == pytest.approx(2.0)
        assert allocations["a"].swap_penalty == 1.0

    def test_two_tenants_below_capacity(self, model, capacity):
        demands = {
            "a": ResourceVector(cpu=1.0, memory=1000.0),
            "b": ResourceVector(cpu=2.0, memory=2000.0),
        }
        allocations = model.resolve(demands, capacity)
        for allocation in allocations.values():
            assert allocation.progress == pytest.approx(1.0)

    def test_negative_demand_rejected(self, model, capacity):
        with pytest.raises(ValueError, match="container 'a' demanded negative CPU: -1.0"):
            model.resolve({"a": ResourceVector(cpu=-1.0)}, capacity)

    @pytest.mark.parametrize("model", [ProportionalShareModel(), WeightedWaterFillModel()])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_demand_rejected(self, model, bad, capacity):
        """``value < 0`` is False for NaN: it used to reach the shares and
        hand the co-tenant ``granted.cpu = nan`` at ``progress = 1.0`` (and
        ``inf`` starved it to 0.0 while the offender progressed)."""
        demands = {
            "a": ResourceVector(cpu=1.0, memory=100.0),
            "b": ResourceVector(cpu=bad, memory=100.0),
        }
        with pytest.raises(ValueError, match=f"container 'b' demanded non-finite CPU: {bad}"):
            model.resolve(demands, capacity)
        demands["b"] = ResourceVector(cpu=1.0, memory=100.0, network=bad)
        with pytest.raises(ValueError, match="container 'b' demanded non-finite NETWORK"):
            model.resolve(demands, capacity)

    @pytest.mark.parametrize("model", [ProportionalShareModel(), WeightedWaterFillModel()])
    def test_finite_demands_whose_total_overflows_still_resolve(self, model, capacity):
        demands = {name: ResourceVector(cpu=1.0, memory_bw=1.5e308) for name in "ab"}
        allocations = model.resolve(demands, capacity)
        assert all(0.0 <= a.progress < 1e-300 for a in allocations.values())


class TestCpuContention:
    def test_proportional_share_on_saturation(self, model, capacity):
        demands = {
            "a": ResourceVector(cpu=4.0),
            "b": ResourceVector(cpu=4.0),
        }
        allocations = model.resolve(demands, capacity)
        # 8 cores demanded, 4 available -> each gets half its ask.
        assert allocations["a"].granted.cpu == pytest.approx(2.0)
        assert allocations["b"].granted.cpu == pytest.approx(2.0)
        assert allocations["a"].progress == pytest.approx(0.5)

    def test_share_is_demand_weighted(self, model, capacity):
        demands = {
            "small": ResourceVector(cpu=1.0),
            "large": ResourceVector(cpu=7.0),
        }
        allocations = model.resolve(demands, capacity)
        ratio = 4.0 / 8.0
        assert allocations["small"].granted.cpu == pytest.approx(1.0 * ratio)
        assert allocations["large"].granted.cpu == pytest.approx(7.0 * ratio)

    def test_total_granted_never_exceeds_capacity(self, model, capacity):
        demands = {
            "a": ResourceVector(cpu=3.0, memory_bw=9000.0),
            "b": ResourceVector(cpu=3.0, memory_bw=9000.0),
        }
        allocations = model.resolve(demands, capacity)
        total_cpu = sum(a.granted.cpu for a in allocations.values())
        total_bw = sum(a.granted.memory_bw for a in allocations.values())
        assert total_cpu <= capacity.cpu + 1e-9
        assert total_bw <= capacity.memory_bw + 1e-9

    def test_progress_is_worst_resource(self, model, capacity):
        # CPU fits, network is 2x oversubscribed -> progress ~ 0.5.
        demands = {
            "a": ResourceVector(cpu=1.0, network=1000.0),
            "b": ResourceVector(network=1000.0),
        }
        allocations = model.resolve(demands, capacity)
        assert allocations["a"].progress == pytest.approx(0.5)
        assert allocations["a"].granted.cpu == pytest.approx(1.0)


class TestSwapPenalty:
    def test_no_penalty_at_exact_capacity(self, model, capacity):
        demands = {"a": ResourceVector(memory=capacity.memory)}
        allocations = model.resolve(demands, capacity)
        assert allocations["a"].swap_penalty == pytest.approx(1.0)
        assert model.last_swap_ratio == pytest.approx(1.0)

    def test_overcommit_penalizes_memory_tenants(self, model, capacity):
        demands = {
            "a": ResourceVector(cpu=1.0, memory=5000.0),
            "b": ResourceVector(cpu=1.0, memory=5000.0),
        }
        allocations = model.resolve(demands, capacity)
        ratio = 10000.0 / capacity.memory
        expected = 1.0 / (1.0 + model.swap_cost * (ratio - 1.0))
        for allocation in allocations.values():
            assert allocation.swap_penalty == pytest.approx(expected)
            assert allocation.progress == pytest.approx(expected)
        assert model.last_swap_ratio == pytest.approx(ratio)

    def test_memoryless_tenant_not_swap_penalized(self, model, capacity):
        demands = {
            "hog": ResourceVector(cpu=1.0, memory=10000.0),
            "pure-cpu": ResourceVector(cpu=1.0),
        }
        allocations = model.resolve(demands, capacity)
        assert allocations["pure-cpu"].swap_penalty == 1.0
        assert allocations["pure-cpu"].progress == pytest.approx(1.0)
        assert allocations["hog"].swap_penalty < 1.0

    def test_swap_induces_disk_contention(self, model, capacity):
        # Overcommit alone, with a disk user present: the swap traffic
        # must eat into the disk user's share.
        demands = {
            "hog": ResourceVector(memory=12192.0),
            "disk": ResourceVector(disk_io=capacity.disk_io),
        }
        allocations = model.resolve(demands, capacity)
        assert allocations["disk"].granted.disk_io < capacity.disk_io

    def test_memory_shares_shrink_proportionally(self, model, capacity):
        demands = {
            "a": ResourceVector(memory=8192.0),
            "b": ResourceVector(memory=8192.0),
        }
        allocations = model.resolve(demands, capacity)
        assert allocations["a"].granted.memory == pytest.approx(4096.0)

    @pytest.mark.parametrize(
        "model_cls", [ProportionalShareModel, WeightedWaterFillModel]
    )
    def test_empty_resolve_clears_swap_ratio(self, model_cls, capacity):
        # Regression: resolve({}) returned before refreshing the ratio,
        # so a host whose tenants were all paused kept publishing the
        # overcommit of its last busy tick.
        model = model_cls()
        hog = ResourceVector(memory=6000.0)
        model.resolve({"a": hog, "b": hog}, capacity)
        assert model.last_swap_ratio == pytest.approx(12000.0 / capacity.memory)
        assert model.resolve({}, capacity) == {}
        assert model.last_swap_ratio == 1.0

    def test_deeper_overcommit_hurts_more(self, model, capacity):
        mild = model.resolve({"a": ResourceVector(memory=9000.0)}, capacity)
        severe = model.resolve({"a": ResourceVector(memory=16000.0)}, capacity)
        assert severe["a"].progress < mild["a"].progress
