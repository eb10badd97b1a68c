"""Property-based tests for resource vectors and contention."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.contention import ProportionalShareModel
from repro.sim.resources import (
    RATE_RESOURCES,
    Resource,
    ResourceVector,
    default_host_capacity,
    sum_vectors,
)

resource_values = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def resource_vectors(draw):
    return ResourceVector(
        cpu=draw(resource_values),
        memory=draw(resource_values),
        memory_bw=draw(resource_values),
        disk_io=draw(resource_values),
        network=draw(resource_values),
    )


class TestVectorAlgebra:
    @given(resource_vectors(), resource_vectors())
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(resource_vectors())
    def test_zero_is_identity(self, a):
        assert a + ResourceVector.zero() == a

    @given(resource_vectors())
    def test_scaling_by_one_is_identity(self, a):
        assert a.scaled(1.0) == a

    @given(resource_vectors(), resource_vectors())
    def test_capping_is_lower_bound_of_both(self, a, b):
        capped = a.capped_by(b)
        for resource, value in capped.items():
            assert value <= a.get(resource)
            assert value <= b.get(resource)
            assert value == min(a.get(resource), b.get(resource))

    @given(st.lists(resource_vectors(), max_size=6))
    def test_sum_matches_componentwise(self, vectors):
        total = sum_vectors(vectors)
        for resource in Resource:
            expected = sum(v.get(resource) for v in vectors)
            assert np.isclose(total.get(resource), expected)


@st.composite
def demand_sets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    demands = {}
    for i in range(n):
        demands[f"c{i}"] = ResourceVector(
            cpu=draw(st.floats(0.0, 16.0)),
            memory=draw(st.floats(0.0, 32768.0)),
            memory_bw=draw(st.floats(0.0, 40000.0)),
            disk_io=draw(st.floats(0.0, 600.0)),
            network=draw(st.floats(0.0, 4000.0)),
        )
    return demands


class TestContentionInvariants:
    @given(demand_sets())
    @settings(max_examples=200)
    def test_progress_in_unit_interval(self, demands):
        allocations = ProportionalShareModel().resolve(
            demands, default_host_capacity()
        )
        for allocation in allocations.values():
            assert 0.0 <= allocation.progress <= 1.0

    @given(demand_sets())
    @settings(max_examples=200)
    def test_rate_allocations_within_capacity(self, demands):
        capacity = default_host_capacity()
        allocations = ProportionalShareModel().resolve(demands, capacity)
        for resource in RATE_RESOURCES:
            granted = sum(a.granted.get(resource) for a in allocations.values())
            assert granted <= capacity.get(resource) * (1 + 1e-9)

    @given(demand_sets())
    @settings(max_examples=200)
    def test_never_grants_more_than_demanded(self, demands):
        allocations = ProportionalShareModel().resolve(
            demands, default_host_capacity()
        )
        for name, allocation in allocations.items():
            for resource, granted in allocation.granted.items():
                assert granted <= demands[name].get(resource) * (1 + 1e-9)

    @given(demand_sets())
    @settings(max_examples=200)
    def test_all_tenants_get_an_allocation(self, demands):
        allocations = ProportionalShareModel().resolve(
            demands, default_host_capacity()
        )
        assert set(allocations) == set(demands)

    @given(demand_sets())
    @settings(max_examples=100)
    def test_equal_demands_get_equal_allocations(self, demands):
        # Duplicate one demand under two names: shares must match.
        sample = next(iter(demands.values()))
        demands = {"x": sample, "y": sample}
        allocations = ProportionalShareModel().resolve(
            demands, default_host_capacity()
        )
        assert np.isclose(allocations["x"].progress, allocations["y"].progress)
        for resource in Resource:
            assert np.isclose(
                allocations["x"].granted.get(resource),
                allocations["y"].granted.get(resource),
            )
