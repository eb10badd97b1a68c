"""Fleet drill under host-failure chaos: the acceptance invariants.

The ISSUE's acceptance bar: every injected host crash leaves no
orphaned in-flight migration — all migration records terminate in a
recorded ``landed`` / ``bounced`` / ``lost`` outcome — and the
coordinator itself stays crash-free through the whole fault script.
"""

import pytest

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.experiments.chaos import (
    FleetMix,
    build_fleet,
    run_fleet_comparison,
    run_fleet_drill,
)
from repro.fleet import FleetCoordinator
from repro.sim.cluster import MIGRATION_IN_FLIGHT

MIX = FleetMix(
    hosts=12,
    ticks=200,
    drain_ticks=80,
    seed=7,
    host_crash=0.004,
    recovery_ticks=25,
    max_down_fraction=0.4,
    blackout=0.02,
)


@pytest.fixture(scope="module")
def drill():
    return run_fleet_drill(
        MIX, arm="coordinator", config=StayAwayConfig(telemetry=False)
    )


class TestNoOrphanedMigrations:
    def test_chaos_actually_fired(self, drill):
        summary = drill.crash_injector.summary()
        assert summary["crashes"] > 0
        assert summary["recoveries"] > 0

    def test_coordinator_crash_free(self, drill):
        assert drill.crashed_at is None

    def test_every_migration_record_terminal(self, drill):
        records = drill.cluster.migrations
        assert records, "drill produced no migrations; invariant is vacuous"
        orphans = [r for r in records if r.outcome == MIGRATION_IN_FLIGHT]
        assert orphans == []
        assert drill.orphaned_migrations() == []

    def test_supervisor_reconciled(self, drill):
        supervisor = drill.coordinator.supervisor
        assert all(
            record.outcome != MIGRATION_IN_FLIGHT
            for migration in supervisor.migrations
            for record in migration.records
            if migration.terminal
        )
        summary = supervisor.summary()
        assert summary["active"] == 0
        assert summary["committed"] > 0
        # Everything requested was accounted for.
        assert (
            summary["committed"] + summary["rolled_back"] + summary["lost"]
            == summary["requested"]
        )

    def test_no_container_vanished(self, drill):
        # Every sensitive app is still placed somewhere (possibly on a
        # down host); batch containers may be LOST only via a recorded
        # lost migration.
        lost = {
            r.container
            for r in drill.cluster.migrations
            if r.outcome == "lost"
        }
        for app in drill.audit.sensitive.values():
            location = drill.cluster.locate(app.name)
            assert location.status in ("on-host", "migrating")
        for name in lost:
            assert drill.cluster.locate(name).status == "lost"


class TestArmInvariantChaos:
    def test_fault_script_identical_across_arms(self):
        mix = FleetMix(
            hosts=8, ticks=120, drain_ticks=40, seed=3,
            host_crash=0.006, recovery_ticks=20, blackout=0.0,
        )
        comparison = run_fleet_comparison(
            mix, config=StayAwayConfig(telemetry=False)
        )
        assert list(comparison.arms) == ["coordinator", "per_host", "none"]
        scripts = [
            [(e.tick, e.kind, e.target) for e in arm.crash_injector.fired]
            for arm in comparison.arms.values()
        ]
        assert scripts[0] == scripts[1] == scripts[2]
        assert any(kind == "host-crash" for _, kind, _ in scripts[0])
        # And no arm crashed or orphaned a migration either.
        for arm in comparison.arms.values():
            assert arm.crashed_at is None
            assert arm.orphaned_migrations() == []


class _OutageController:
    """A Stay-Away controller that raises on every tick of ``[start, end)``."""

    def __init__(self, controller, start, end):
        self.controller = controller
        self.qos = controller.qos  # in-process: the host-local channel too
        self.start = start
        self.end = end

    def on_tick(self, snapshot, host):
        if self.start <= snapshot.tick < self.end:
            raise RuntimeError("controller outage")
        self.controller.on_tick(snapshot, host)


class TestRecoveredCellHandsBack:
    def test_fallback_pauses_are_resumed_once_the_controller_recovers(self):
        """The reactive fallback pauses batch work while the controller is
        down; once the controller runs again, whatever the fallback still
        holds paused goes back to running unless the controller itself
        wants it paused."""
        config = StayAwayConfig(telemetry=False)
        cluster, sensitive = build_fleet(FleetMix(hosts=4, seed=0))
        coordinator = FleetCoordinator(
            sensitive,
            config=config,
            migrate=False,
            controller_factory=lambda host, app: _OutageController(
                StayAway(app, config=config), 100, 160
            ),
        )
        cluster.add_middleware(coordinator)
        cluster.run(600)

        cell = coordinator.cells["host-001"]
        assert cell.crashes == 60  # one per outage tick
        assert cell.fallback_ticks > 0
        assert not cell.degraded
        held = set(cell.controller.throttle.desired_paused)
        for name, container in cluster.hosts["host-001"].containers.items():
            if not container.sensitive:
                assert container.is_paused == (name in held), name
