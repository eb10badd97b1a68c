"""The simulator's value types: immutable tuples whose arithmetic is bit
for bit the per-field formulas.

``ResourceVector``, ``Allocation``, ``HostSnapshot`` and ``QosReport``
are immutable tuples. A vector's fields are in ``observation.METRICS``
order, so it is the usage tuple an observation carries. Every operation
below is checked against the field-by-field formula it stands for, on
the bits (``-0.0`` and NaN included), because the pinned decision
digests depend on every last bit of a tick.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observation import METRICS
from repro.sim.clock import SimulationClock
from repro.sim.container import ContainerState
from repro.sim.contention import Allocation, ProportionalShareModel, _allocation, swap_pressure
from repro.sim.host import Host, HostSnapshot
from repro.sim.resources import ResourceVector, default_host_capacity
from repro.workloads.base import QosReport
from repro.workloads.bombs import MemoryBomb

#: Every float, the awkward ones included.
anything = st.floats(allow_nan=True, allow_infinity=True)
vectors = st.builds(ResourceVector, anything, anything, anything, anything, anything)


def bits(values):
    return [struct.pack("<d", value) for value in values]


def fields(vector):
    return [getattr(vector, name) for name in METRICS]


class TestResourceVectorIsAValue:
    @given(vectors)
    def test_fields_are_in_metrics_order(self, vector):
        assert ResourceVector._fields == METRICS
        assert bits(vector) == bits(fields(vector))
        assert vector.values() is vector

    @given(vectors)
    def test_immutable(self, vector):
        for name in METRICS:
            with pytest.raises(AttributeError):
                setattr(vector, name, 1.0)
        with pytest.raises(TypeError):
            vector[0] = 1.0

    @given(vectors, vectors)
    def test_add_and_sub_are_the_per_field_formulas(self, a, b):
        assert bits(a + b) == bits([x + y for x, y in zip(fields(a), fields(b))])
        assert bits(a - b) == bits([x - y for x, y in zip(fields(a), fields(b))])
        assert type(a + b) is ResourceVector and type(a - b) is ResourceVector

    @given(vectors, anything)
    def test_scaled_is_the_per_field_formula(self, a, factor):
        assert bits(a.scaled(factor)) == bits([x * factor for x in fields(a)])

    @given(vectors, anything)
    def test_clamped_is_the_per_field_formula(self, a, lower):
        clamped = a.clamped(lower)
        assert bits(clamped) == bits([max(x, lower) for x in fields(a)])
        assert type(clamped) is ResourceVector
        assert bits(a.clamped()) == bits([max(x, 0.0) for x in fields(a)])

    @given(vectors, vectors)
    def test_capped_by_is_the_per_field_formula(self, a, limits):
        want = [min(x, y) for x, y in zip(fields(a), fields(limits))]
        assert bits(a.capped_by(limits)) == bits(want)

    def test_negative_zero_survives_the_clamp(self):
        assert bits(ResourceVector(-0.0).clamped()) == bits([-0.0, 0.0, 0.0, 0.0, 0.0])


class TestAllocation:
    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(0.0, 1.0))
    def test_in_range_progress_is_kept(self, progress, penalty):
        allocation = Allocation(ResourceVector(1.0), progress, penalty)
        assert allocation == (ResourceVector(1.0), progress, penalty)
        assert allocation.progress == progress and allocation.swap_penalty == penalty
        assert Allocation(ResourceVector(), progress).swap_penalty == 1.0

    @given(
        st.one_of(
            st.floats(max_value=-1e-300), st.floats(min_value=1.0 + 2e-9), st.just(float("nan"))
        )
    )
    def test_out_of_range_progress_raises(self, progress):
        with pytest.raises(ValueError, match="progress must be in"):
            Allocation(granted=ResourceVector.zero(), progress=progress)

    def test_immutable(self):
        allocation = Allocation(ResourceVector(1.0), 0.5)
        with pytest.raises(AttributeError):
            allocation.progress = 1.0


def reference_allocation(demand, granted, swap_penalty):
    """``_allocation`` as written with ``min`` / ``max`` on attributes."""
    progress = 1.0
    if demand.cpu > 0:
        progress = min(progress, granted.cpu / demand.cpu)
    if demand.memory_bw > 0:
        progress = min(progress, granted.memory_bw / demand.memory_bw)
    if demand.disk_io > 0:
        progress = min(progress, granted.disk_io / demand.disk_io)
    if demand.network > 0:
        progress = min(progress, granted.network / demand.network)
    tenant_swap_penalty = swap_penalty if demand.memory > 0 else 1.0
    progress *= tenant_swap_penalty
    return granted, min(1.0, max(0.0, progress)), tenant_swap_penalty


def share(demanded, available):
    return 1.0 if demanded <= available or demanded <= 0 else available / demanded


def reference_resolve(demands, capacity, swap_cost=3.0, swap_io_rate=0.05):
    """Proportional share with attribute reads and one vector per grant."""
    totals = [0.0] * 5
    for demand in demands.values():
        for i, name in enumerate(METRICS):
            totals[i] += getattr(demand, name)
    _, penalty, swap_io = swap_pressure(totals[1], capacity.memory, swap_cost, swap_io_rate)
    memory = totals[1]
    memory_ratio = capacity.memory / memory if memory > capacity.memory > 0 else 1.0
    cpu = share(totals[0], capacity.cpu)
    memory_bw = share(totals[2], capacity.memory_bw)
    disk_io = share(totals[3] + swap_io, capacity.disk_io)
    network = share(totals[4], capacity.network)
    out = {}
    for name, d in demands.items():
        granted = ResourceVector(
            d.cpu * cpu, d.memory * memory_ratio, d.memory_bw * memory_bw,
            d.disk_io * disk_io, d.network * network,
        )
        out[name] = reference_allocation(d, granted, penalty)
    return out


demand_values = st.floats(min_value=0.0, max_value=1e5)
demands = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.builds(ResourceVector, *[demand_values] * 5),
    min_size=1,
)


class TestFlattenedContention:
    @given(vectors, vectors, st.floats(min_value=0.0, max_value=1.0))
    def test_allocation_is_the_min_max_formula(self, demand, granted, penalty):
        got = _allocation(demand, granted, penalty)
        want = reference_allocation(demand, granted, penalty)
        assert type(got) is Allocation
        assert bits(got.granted) == bits(want[0])
        assert bits(got[1:]) == bits(want[1:])
        assert 0.0 <= got.progress <= 1.0

    @settings(max_examples=200)
    @given(demands)
    def test_proportional_resolve_is_the_per_field_formula(self, demands):
        capacity = default_host_capacity()
        got = ProportionalShareModel().resolve(demands, capacity)
        want = reference_resolve(demands, capacity)
        assert list(got) == list(want)
        for name, allocation in got.items():
            assert bits(allocation.granted) == bits(want[name][0])
            assert bits(allocation[1:]) == bits(want[name][1:])


class TestJitter:
    @given(st.integers(0, 2**32 - 1), st.lists(st.floats(-1e4, 1e4), min_size=5, max_size=5))
    def test_jitter_is_the_clamped_product(self, seed, base):
        app = MemoryBomb(seed=seed, noise_std=0.5)
        reference = np.random.default_rng(seed)
        got = app._jitter(ResourceVector(*base))
        noise = reference.normal(1.0, 0.5, size=5).tolist()
        assert bits(got) == bits([max(0.0, v * n) for v, n in zip(base, noise)])


class TestSnapshotAndReport:
    def test_host_snapshot_is_an_immutable_tuple(self):
        host = Host(clock=SimulationClock())
        snapshot = host.step()
        assert isinstance(snapshot, HostSnapshot) and isinstance(snapshot, tuple)
        assert HostSnapshot._fields == ("tick", "usage", "allocations", "states", "swap_ratio")
        with pytest.raises(AttributeError):
            snapshot.tick = 5

    def test_cpu_utilization_folds_usage(self):
        snapshot = HostSnapshot(
            0, {"a": ResourceVector(cpu=1.0), "b": ResourceVector(cpu=2.5)}, {},
            {"a": ContainerState.RUNNING, "b": ContainerState.RUNNING}, 1.0,
        )
        assert snapshot.cpu_utilization(default_host_capacity()) == 3.5 / 4.0
        assert snapshot.cpu_utilization(ResourceVector()) == 0.0

    def test_qos_report_is_an_immutable_tuple(self):
        report = QosReport(value=0.5, threshold=0.9)
        assert report == (0.5, 0.9) and report.violated
        with pytest.raises(AttributeError):
            report.value = 1.0
