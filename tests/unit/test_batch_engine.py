"""Unit tests for the struct-of-arrays engine and its cluster seam.

Covers the segmented fair-share reduction's edge cases, the batched
engine's mask-update control surface, and regression tests for the
scalar-path bugs the equivalence work surfaced (hash-ordered water-fill
folds, off-tick RNG probes in ``Cluster.migrate`` and the fleet eviction
picker).
"""

import numpy as np
import pytest

from repro.sim.batch import (
    BatchEngine,
    BatchEvent,
    BatchScenario,
    ContainerSpec,
    HostSpec,
    run_scenario,
    standard_scenario,
)
from repro.sim.cluster import Cluster
from repro.sim.container import Container, ContainerError
from repro.sim.contention import (
    WeightedWaterFillModel,
    resolve_proportional_arrays,
    segmented_water_fill,
    weighted_water_fill,
)
from repro.sim.host import Host
from repro.sim.resources import NUM_RESOURCES, Resource, ResourceVector


def _flat_trace(cpu=1.0, memory=0.0, ticks=1):
    trace = np.zeros((ticks, NUM_RESOURCES))
    trace[:, 0] = cpu
    trace[:, 1] = memory
    return trace


def _scenario(n_hosts=2, per_host=2, memory=0.0, model="proportional"):
    hosts = tuple(HostSpec(name=f"h{i}", model=model) for i in range(n_hosts))
    containers = tuple(
        ContainerSpec(
            name=f"c{i}-{j}",
            host=f"h{i}",
            trace=_flat_trace(cpu=1.5, memory=memory),
        )
        for i in range(n_hosts)
        for j in range(per_host)
    )
    return BatchScenario(hosts=hosts, containers=containers)


class TestSegmentedWaterFill:
    def test_zero_demand_rows_get_nothing(self):
        granted = segmented_water_fill(
            demands=np.array([0.0, 0.0]),
            weights=np.array([1.0, 1.0]),
            host_index=np.array([0, 0]),
            capacity=np.array([10.0]),
        )
        assert np.array_equal(granted, np.zeros(2))

    def test_single_hungry_tenant_capped_by_capacity(self):
        granted = segmented_water_fill(
            demands=np.array([7.0]),
            weights=np.array([1.0]),
            host_index=np.array([0]),
            capacity=np.array([4.0]),
        )
        assert granted[0] == pytest.approx(4.0)
        granted = segmented_water_fill(
            demands=np.array([3.0]),
            weights=np.array([1.0]),
            host_index=np.array([0]),
            capacity=np.array([4.0]),
        )
        assert granted[0] == pytest.approx(3.0)

    def test_weight_validation_only_for_demanding_rows(self):
        with pytest.raises(ValueError, match="weights must be positive"):
            segmented_water_fill(
                demands=np.array([1.0]),
                weights=np.array([0.0]),
                host_index=np.array([0]),
                capacity=np.array([4.0]),
            )
        # A zero weight on a zero-demand row is legal (the scalar
        # function never looks at weights of non-hungry tenants).
        granted = segmented_water_fill(
            demands=np.array([0.0, 2.0]),
            weights=np.array([0.0, 1.0]),
            host_index=np.array([0, 0]),
            capacity=np.array([4.0]),
        )
        assert granted[1] == pytest.approx(2.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            segmented_water_fill(
                demands=np.array([1.0]),
                weights=np.array([1.0]),
                host_index=np.array([0]),
                capacity=np.array([-1.0]),
            )

    def test_hosts_fill_independently(self):
        granted = segmented_water_fill(
            demands=np.array([4.0, 4.0, 1.0]),
            weights=np.array([1.0, 3.0, 1.0]),
            host_index=np.array([0, 0, 1]),
            capacity=np.array([4.0, 10.0]),
        )
        # Host 0 saturates: weight 1 vs 3 splits 4.0 into 1.0 / 3.0.
        assert granted[0] == pytest.approx(1.0)
        assert granted[1] == pytest.approx(3.0)
        # Host 1 is uncontended.
        assert granted[2] == pytest.approx(1.0)

    def test_bit_identical_to_scalar_fold(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            demands = rng.uniform(0.0, 5.0, size=n)
            weights = rng.uniform(0.1, 4.0, size=n)
            capacity = float(rng.uniform(0.0, 8.0))
            names = [f"t{i}" for i in range(n)]
            scalar = weighted_water_fill(
                dict(zip(names, demands)), dict(zip(names, weights)), capacity
            )
            batched = segmented_water_fill(
                demands, weights, np.zeros(n, dtype=np.intp), np.array([capacity])
            )
            assert [scalar[name] for name in names] == list(batched)


class TestProportionalArrays:
    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            resolve_proportional_arrays(
                demand=np.full((1, NUM_RESOURCES), -1.0),
                host_index=np.array([0]),
                capacity=np.ones((1, NUM_RESOURCES)),
                swap_cost=np.array([3.0]),
                swap_io_rate=np.array([0.05]),
            )

    def test_uncontended_rows_fully_granted(self):
        demand = np.zeros((2, NUM_RESOURCES))
        demand[:, 0] = 1.0
        resolution = resolve_proportional_arrays(
            demand,
            host_index=np.array([0, 0]),
            capacity=np.full((1, NUM_RESOURCES), 100.0),
            swap_cost=np.array([3.0]),
            swap_io_rate=np.array([0.05]),
        )
        assert np.array_equal(resolution.granted, demand)
        assert np.array_equal(resolution.progress, np.ones(2))
        assert np.array_equal(resolution.swap_ratio, np.ones(1))


class TestBatchEngineControls:
    def test_pause_resume_counting(self):
        engine = BatchEngine(_scenario())
        engine.run(2)
        engine.pause("c0-0")
        engine.pause("c0-0")  # no-op while already paused
        assert engine.pause_count[0] == 1
        engine.run(3)
        assert engine.paused_ticks[0] == 3
        engine.resume("c0-0")
        engine.run(1)
        assert engine.paused_ticks[0] == 3

    def test_lifecycle_errors_match_scalar(self):
        engine = BatchEngine(_scenario())
        engine.stop("c0-0")
        with pytest.raises(ContainerError):
            engine.pause("c0-0")
        with pytest.raises(ContainerError):
            engine.resume("c0-0")
        with pytest.raises(KeyError):
            engine.pause("nope")
        with pytest.raises(KeyError):
            engine.fail_host("nope")

    def test_migration_validation(self):
        engine = BatchEngine(_scenario(n_hosts=3))
        engine.run(1)
        engine.migrate("c0-0", "h1")
        with pytest.raises(ValueError, match="already migrating"):
            engine.migrate("c0-0", "h2")
        engine.fail_host("h2")
        with pytest.raises(ValueError, match="down"):
            engine.migrate("c0-1", "h2")
        with pytest.raises(ValueError, match="source"):
            # c2-0 lives on the downed h2.
            engine.migrate("c2-0", "h0")
        with pytest.raises(ValueError, match="equals source"):
            engine.migrate("c1-0", "h1")

    def test_migration_downtime_floor_is_one_tick(self):
        engine = BatchEngine(_scenario())
        # Never ran -> zero resident memory -> 1 tick of downtime.
        assert engine.migrate("c0-0", "h1") == 1

    def test_lost_when_both_ends_die(self):
        engine = BatchEngine(_scenario(n_hosts=2))
        engine.run(1)
        engine.migrate("c0-0", "h1")
        engine.fail_host("h0")
        engine.fail_host("h1")
        engine.run(3)
        assert engine.stats["lost"] == 1
        assert engine.result().states[0] == "stopped"

    def test_bounce_back_to_source(self):
        engine = BatchEngine(_scenario(n_hosts=2))
        engine.run(1)
        engine.migrate("c0-0", "h1")
        engine.fail_host("h1")
        engine.run(3)
        assert engine.stats["bounced"] == 1
        assert engine.host_index[0] == 0

    def test_down_host_rows_freeze(self):
        engine = BatchEngine(_scenario(n_hosts=2))
        engine.run(2)
        work_before = engine.work_done.copy()
        engine.fail_host("h0")
        engine.run(4)
        assert np.array_equal(engine.work_done[:2], work_before[:2])
        assert (engine.work_done[2:] > work_before[2:]).all()
        engine.recover_host("h0")
        engine.run(1)
        assert (engine.work_done[:2] > work_before[:2]).all()


class TestScenarioValidation:
    def test_rejects_unknown_host(self):
        with pytest.raises(ValueError, match="unknown host"):
            BatchScenario(
                hosts=(HostSpec(name="h0"),),
                containers=(
                    ContainerSpec(name="c", host="h9", trace=_flat_trace()),
                ),
            )

    def test_rejects_bad_trace_shape(self):
        with pytest.raises(ValueError, match="trace"):
            ContainerSpec(name="c", host="h0", trace=np.ones((3, 2)))

    def test_rejects_negative_trace(self):
        trace = _flat_trace()
        trace[0, 0] = -1.0
        with pytest.raises(ValueError, match=">= 0"):
            ContainerSpec(name="c", host="h0", trace=trace)

    def test_rejects_migrate_event_without_destination(self):
        with pytest.raises(ValueError, match="destination"):
            BatchEvent(tick=1, action="migrate", target="c")


class TestEngineEquivalence:
    @pytest.mark.parametrize("model", ["proportional", "waterfill"])
    def test_three_engines_bit_identical(self, model):
        scenario = standard_scenario(
            hosts=4, containers_per_host=6, seed=13, model=model
        )
        reference = run_scenario(scenario, 80, "scalar")
        result = run_scenario(scenario, 80, "batch")
        assert result.container_names == reference.container_names
        assert np.array_equal(result.work_done, reference.work_done)
        assert np.array_equal(result.running_ticks, reference.running_ticks)
        assert np.array_equal(result.paused_ticks, reference.paused_ticks)
        assert np.array_equal(result.pause_count, reference.pause_count)
        assert result.states == reference.states
        assert np.array_equal(result.trajectory, reference.trajectory)


class _CountingApp:
    """ApplicationLike that counts demand() probes (RNG stand-in)."""

    def __init__(self, name="probe", memory=512.0):
        self.name = name
        self.demand_calls = 0
        self.work_done = 0.0
        self._vector = ResourceVector(cpu=1.0, memory=memory)

    def demand(self, clock):
        self.demand_calls += 1
        return self._vector

    def advance(self, allocation, clock):
        self.work_done += allocation.progress

    @property
    def finished(self):
        return False


class TestScalarBugRegressions:
    def test_waterfill_fold_is_insertion_ordered(self):
        # Regression: the hungry set used to be a Python set of names,
        # so the fold followed string-hash order and results varied in
        # the last ulp with PYTHONHASHSEED. The fold must match the
        # segmented (array) fold bit for bit, which is insertion-
        # ordered by construction.
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            demands = rng.uniform(0.0, 6.0, size=n)
            weights = rng.uniform(0.1, 5.0, size=n)
            capacity = float(rng.uniform(1.0, 10.0))
            names = [f"tenant-{i}" for i in range(n)]
            scalar = weighted_water_fill(
                dict(zip(names, demands)), dict(zip(names, weights)), capacity
            )
            batched = segmented_water_fill(
                demands, weights, np.zeros(n, dtype=np.intp), np.array([capacity])
            )
            assert [scalar[name] for name in names] == list(batched)

    def test_migrate_does_not_probe_app_demand(self):
        # Regression: sizing a paused/idle container's memory image by
        # probing app.demand() advanced the app's private jitter RNG
        # outside the tick loop, desyncing otherwise-identical runs.
        app = _CountingApp()
        host_a, host_b = Host(), Host()
        container = Container(name="c", app=app)
        host_a.add_container(container)
        cluster = Cluster(hosts={"a": host_a, "b": host_b})
        cluster.step()
        host_a.pause_container("c")
        cluster.step()
        calls_before = app.demand_calls
        record = cluster.migrate("c", "b")
        assert app.demand_calls == calls_before
        # Downtime still sized from the last granted memory.
        assert record.downtime_ticks == 1

    def test_migrate_uses_last_granted_memory(self):
        app = _CountingApp(memory=2500.0)
        host_a, host_b = Host(), Host()
        host_a.add_container(Container(name="c", app=app))
        cluster = Cluster(
            hosts={"a": host_a, "b": host_b}, migration_mb_per_tick=1000.0
        )
        cluster.step()
        host_a.pause_container("c")
        cluster.step()
        record = cluster.migrate("c", "b")
        assert record.downtime_ticks == 3  # ceil(2500 / 1000)

    def test_eviction_victim_does_not_probe_app_demand(self):
        # Regression twin of the migrate fix, in the fleet coordinator:
        # the paused-container weight fallback used app.demand() too.
        from repro.core.config import StayAwayConfig
        from repro.fleet.coordinator import FleetCoordinator

        bomb = _CountingApp(name="bomb")
        host = Host()
        host.add_container(Container(name="bomb", app=bomb))
        cluster = Cluster(hosts={"a": host, "b": Host()})
        coordinator = FleetCoordinator(
            {}, config=StayAwayConfig(telemetry=False)
        )
        cluster.add_middleware(coordinator)
        cluster.step()
        host.pause_container("bomb")
        snapshots = cluster.step()
        calls_before = bomb.demand_calls
        victim = coordinator._eviction_victim("a", snapshots["a"], cluster)
        assert bomb.demand_calls == calls_before
        assert victim == "bomb"  # still picked via its last granted CPU
