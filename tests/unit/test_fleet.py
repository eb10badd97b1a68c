"""Unit tests for the fleet control plane: scoring, migration, cells."""

import pytest

from repro.core.config import StayAwayConfig
from repro.fleet import (
    FleetCoordinator,
    HostControllerCell,
    InterferenceScorer,
    MigrationState,
    MigrationSupervisor,
)
from repro.fleet.migration import ATTEMPT_TIMEOUT, MAX_CONCURRENT, RETRIES, RETRY_BACKOFF
from repro.fleet.scoring import SMOOTHING
from repro.sim.cluster import MIGRATION_IN_FLIGHT, Cluster
from repro.sim.container import Container
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp, CountingApp, SensitiveStub


def no_orphans(supervisor):
    """Every cluster record of every terminal migration has an outcome."""
    return all(
        record.outcome != MIGRATION_IN_FLIGHT
        for migration in supervisor.migrations
        for record in migration.records
        if migration.terminal
    )


def make_cluster(n=3, **kwargs):
    kwargs.setdefault("migration_mb_per_tick", 500.0)
    return Cluster(host_names=[f"h{i}" for i in range(n)], **kwargs)


def add_app(cluster, host, name, memory=1000.0, cpu=1.0):
    app = ConstantApp(
        name=name, demand_vector=ResourceVector(cpu=cpu, memory=memory)
    )
    cluster.host(host).add_container(Container(name=name, app=app))
    return app


class TestInterferenceScorer:
    def test_weights_sum_and_clamp(self):
        scorer = InterferenceScorer()  # a host's first score is unsmoothed
        score = scorer.observe("h", predicted=2.0, violated=True,
                               utilization=5.0, tick=0)
        assert score.predicted == 1.0
        assert score.utilization == 1.0
        assert score.total == pytest.approx(1.0)

    def test_ewma_smoothing(self):
        scorer = InterferenceScorer()
        scorer.observe("h", 1.0, True, 1.0, tick=0)
        second = scorer.observe("h", 0.0, False, 0.0, tick=1)
        assert second.predicted == pytest.approx(1 - SMOOTHING)
        assert second.qos == pytest.approx(1 - SMOOTHING)
        assert second.total == pytest.approx(1 - SMOOTHING)


class TestMigrationSupervisor:
    def test_commit_happy_path(self):
        cluster = make_cluster()
        add_app(cluster, "h0", "job")
        cluster.step()
        supervisor = MigrationSupervisor(cluster)
        migration = supervisor.request(1, "job", "h1")
        assert migration is not None
        assert migration.state == MigrationState.PREPARE
        for _ in range(5):
            tick = cluster.clock.tick
            supervisor.poll(tick)
            cluster.step()
        assert migration.state == MigrationState.COMMIT
        assert migration.reason == "landed"
        assert cluster.locate("job").host == "h1"
        assert supervisor.summary()["committed"] == 1
        assert no_orphans(supervisor)

    def test_commit_resumes_paused_container(self):
        cluster = make_cluster()
        add_app(cluster, "h0", "job")
        cluster.step()
        cluster.host("h0").container("job").pause()
        supervisor = MigrationSupervisor(cluster)
        supervisor.request(1, "job", "h1")
        for _ in range(6):
            supervisor.poll(cluster.clock.tick)
            cluster.step()
        assert cluster.host("h1").container("job").is_running

    def test_destination_death_retries_then_commits_elsewhere_or_rolls_back(self):
        cluster = make_cluster()
        add_app(cluster, "h0", "job", memory=2000.0)  # 4-tick copy
        cluster.step()
        supervisor = MigrationSupervisor(cluster)
        migration = supervisor.request(1, "job", "h1")
        supervisor.poll(1)  # starts the copy
        assert migration.state == MigrationState.COPY
        cluster.fail_host("h1")
        supervisor.poll(2)  # destination dead: cancel -> bounce -> retry
        assert migration.state == MigrationState.PREPARE
        assert migration.attempts == 1
        assert migration.next_attempt_tick == 2 + RETRY_BACKOFF
        assert cluster.locate("job").host == "h0"
        # Destination stays dead; every retry start is refused, and with
        # retries exhausted the migration rolls back for good.
        for _ in range(RETRIES):
            assert migration.state == MigrationState.PREPARE
            supervisor.poll(migration.next_attempt_tick)
        assert migration.attempts == 1 + RETRIES
        assert migration.state == MigrationState.ROLLBACK
        assert cluster.locate("job").host == "h0"
        assert supervisor.summary()["rolled_back"] == 1
        assert no_orphans(supervisor)

    def test_timeout_cancels_attempt(self):
        cluster = make_cluster()
        add_app(cluster, "h0", "job", memory=50_000.0)  # 100-tick copy
        cluster.step()
        supervisor = MigrationSupervisor(cluster)
        migration = supervisor.request(1, "job", "h1")
        supervisor.poll(1)
        assert migration.state == MigrationState.COPY
        supervisor.poll(ATTEMPT_TIMEOUT)  # not yet: 40 - 1 < 40
        assert migration.state == MigrationState.COPY
        supervisor.poll(1 + ATTEMPT_TIMEOUT)
        assert migration.state == MigrationState.PREPARE  # cancelled, retry due
        assert supervisor.timeout_count == 1
        assert cluster.locate("job").host == "h0"
        assert migration.records[-1].outcome == "bounced"

    def test_retry_timeout_counts_from_the_retry(self):
        # Default supervisor: timeout 40, retries 2, backoff 5.
        cluster = make_cluster()
        add_app(cluster, "h0", "job", memory=50_000.0)  # 100-tick copy
        cluster.step()
        supervisor = MigrationSupervisor(cluster)
        migration = supervisor.request(1, "job", "h1")
        supervisor.poll(1)
        assert migration.attempt_started_tick == 1
        supervisor.poll(40)  # 40 - 1 < 40
        assert migration.state == MigrationState.COPY
        supervisor.poll(41)  # first attempt times out -> retry after backoff
        assert migration.state == MigrationState.PREPARE
        assert migration.next_attempt_tick == 41 + 5
        supervisor.poll(46)
        assert migration.state == MigrationState.COPY
        assert migration.attempts == 2
        assert migration.attempt_started_tick == 46
        # 85 ticks since the first attempt began, 39 since the retry:
        # the retry's time budget is its own.
        supervisor.poll(85)
        assert migration.state == MigrationState.COPY
        supervisor.poll(86)
        assert migration.state == MigrationState.PREPARE
        assert migration.next_attempt_tick == 86 + 5 * 2
        assert supervisor.timeout_count == 2
        supervisor.poll(96)  # third and last attempt (retries=2)
        supervisor.poll(136)
        assert migration.state == MigrationState.ROLLBACK
        assert migration.attempts == 3
        assert cluster.locate("job").host == "h0"

    def test_source_and_destination_death_is_lost(self):
        cluster = make_cluster()
        add_app(cluster, "h0", "job", memory=2000.0)
        cluster.step()
        supervisor = MigrationSupervisor(cluster)
        migration = supervisor.request(1, "job", "h1")
        supervisor.poll(1)
        cluster.fail_host("h1")
        cluster.fail_host("h0")
        supervisor.poll(2)
        assert migration.state == MigrationState.LOST
        assert migration.records[-1].outcome == "lost"
        assert supervisor.summary()["lost"] == 1

    def test_concurrency_cap_and_duplicate_refusal(self):
        cluster = make_cluster(n=4)
        for i in range(MAX_CONCURRENT + 1):
            add_app(cluster, "h0", f"job-{i}", memory=500.0)
        cluster.step()
        supervisor = MigrationSupervisor(cluster)
        assert supervisor.request(1, "job-0", "h1") is not None
        assert supervisor.request(1, "job-0", "h2") is None  # duplicate
        for i in range(1, MAX_CONCURRENT):
            assert supervisor.request(1, f"job-{i}", "h1") is not None
        assert supervisor.request(1, f"job-{MAX_CONCURRENT}", "h1") is None  # cap
        assert supervisor.summary()["requested"] == MAX_CONCURRENT

    def test_request_refuses_unlocatable_or_same_host(self):
        cluster = make_cluster()
        add_app(cluster, "h0", "job")
        cluster.step()
        supervisor = MigrationSupervisor(cluster)
        assert supervisor.request(1, "ghost", "h1") is None
        assert supervisor.request(1, "job", "h0") is None


class CrashingController:
    """Controller stub whose on_tick always raises."""

    def __init__(self, sensitive_app):
        from repro.monitoring.qos import QosTracker

        self.qos = QosTracker(sensitive_app)
        self.config = StayAwayConfig(telemetry=False)

    def on_tick(self, snapshot, host):
        raise RuntimeError("poisoned controller")


def make_cell(controller):
    return HostControllerCell("h0", controller)


class TestHostControllerCell:
    def build_host(self):
        cluster = make_cluster(n=1)
        sensitive = SensitiveStub(name="svc")
        cluster.host("h0").add_container(
            Container(name="svc", app=sensitive, sensitive=True)
        )
        add_app(cluster, "h0", "bomb", cpu=6.0)
        return cluster, sensitive

    def test_crash_degrades_cell_not_caller(self):
        cluster, sensitive = self.build_host()
        cell = make_cell(CrashingController(sensitive))
        for _ in range(10):
            snapshot = cluster.step()["h0"]
            cell.observe(snapshot, cluster.host("h0"))  # must not raise
        # The cell drives the controller every tick, and every tick it
        # raises is one crash.
        assert cell.crashes == 10
        assert cell.degraded
        assert cell.predicted_risk() == 0.0
        assert cell.fallback_ticks > 0

    def test_fallback_pauses_batch_on_violation_and_resumes(self):
        cluster, sensitive = self.build_host()
        cell = make_cell(CrashingController(sensitive))
        bomb = cluster.host("h0").container("bomb")
        # Drive until the contended host produces a violation and the
        # fallback reacts.
        for _ in range(20):
            snapshot = cluster.step()["h0"]
            cell.observe(snapshot, cluster.host("h0"))
            if bomb.is_paused:
                break
        assert bomb.is_paused
        # With the bomb paused the violation clears; after the clean
        # streak the fallback resumes it.
        for _ in range(30):
            snapshot = cluster.step()["h0"]
            cell.observe(snapshot, cluster.host("h0"))
            if bomb.is_running:
                break
        assert bomb.is_running

    def test_healthy_controller_is_not_degraded(self):
        from repro.core.controller import StayAway

        cluster, sensitive = self.build_host()
        controller = StayAway(sensitive, config=StayAwayConfig(telemetry=False))
        cell = make_cell(controller)
        for _ in range(5):
            snapshot = cluster.step()["h0"]
            cell.observe(snapshot, cluster.host("h0"))
        assert not cell.degraded
        assert cell.crashes == 0


class TestFleetCoordinator:
    def build_fleet(self):
        cluster = make_cluster(n=3)
        sensitive = {}
        svc = SensitiveStub(name="svc-0")
        cluster.host("h0").add_container(
            Container(name="svc-0", app=svc, sensitive=True)
        )
        sensitive["h0"] = svc
        add_app(cluster, "h0", "bomb", cpu=6.0)
        # h1: sensitive-only, h2: spare.
        svc1 = SensitiveStub(name="svc-1")
        cluster.host("h1").add_container(
            Container(name="svc-1", app=svc1, sensitive=True)
        )
        sensitive["h1"] = svc1
        return cluster, sensitive

    def test_evicts_bomb_to_spare_host_only(self):
        cluster, sensitive = self.build_fleet()
        config = StayAwayConfig(telemetry=False)
        coordinator = FleetCoordinator(sensitive, config=config)
        cluster.add_middleware(coordinator)
        cluster.run(80)
        assert cluster.locate("bomb").host == "h2"  # the spare, not h1
        assert coordinator.supervisor.summary()["committed"] == 1

    def test_migrate_false_never_moves_work(self):
        cluster, sensitive = self.build_fleet()
        coordinator = FleetCoordinator(
            sensitive, config=StayAwayConfig(telemetry=False), migrate=False
        )
        cluster.add_middleware(coordinator)
        cluster.run(80)
        assert cluster.locate("bomb").host == "h0"
        assert coordinator.supervisor.summary()["requested"] == 0

    def test_one_cell_crash_leaves_other_cells_predictive(self):
        cluster, sensitive = self.build_fleet()
        config = StayAwayConfig(telemetry=False)

        def factory(host, app):
            if host == "h0":
                return CrashingController(app)
            from repro.core.controller import StayAway

            return StayAway(app, config=config)

        coordinator = FleetCoordinator(
            sensitive, config=config, controller_factory=factory
        )
        cluster.add_middleware(coordinator)
        cluster.run(40)  # must not raise
        assert coordinator.cells["h0"].degraded
        assert coordinator.cells["h0"].crashes > 0
        assert not coordinator.cells["h1"].degraded
        summary = coordinator.summary()["fleet"]
        assert summary["controllers"]["degraded"] == ["h0"]

    def test_unknown_sensitive_host_rejected(self):
        cluster, _ = self.build_fleet()
        coordinator = FleetCoordinator(
            {"nope": SensitiveStub()}, config=StayAwayConfig(telemetry=False)
        )
        cluster.add_middleware(coordinator)
        with pytest.raises(ValueError, match="unknown host"):
            cluster.step()

    def test_eviction_victim_does_not_probe_app_demand(self):
        # Regression twin of the Cluster.migrate fix: the
        # paused-container weight fallback used app.demand() too.
        bomb = CountingApp(name="bomb")
        cluster = make_cluster(n=2)
        cluster.host("h0").add_container(Container(name="bomb", app=bomb))
        coordinator = FleetCoordinator(
            {}, config=StayAwayConfig(telemetry=False)
        )
        cluster.add_middleware(coordinator)
        cluster.step()
        cluster.host("h0").pause("bomb")
        snapshots = cluster.step()
        calls_before = bomb.demand_calls
        victim = coordinator._eviction_victim("h0", snapshots["h0"], cluster)
        assert bomb.demand_calls == calls_before
        assert victim == "bomb"  # still picked via its last granted CPU

    def test_admit_prefers_coldest_host(self):
        cluster, sensitive = self.build_fleet()
        coordinator = FleetCoordinator(
            sensitive, config=StayAwayConfig(telemetry=False), migrate=False
        )
        cluster.add_middleware(coordinator)
        cluster.run(10)
        app = ConstantApp(name="newjob")
        target = coordinator.admit(Container(name="newjob", app=app))
        assert target == "h2"  # the empty spare scores coldest
        assert "newjob" in cluster.host("h2").containers

    def test_summary_shape(self):
        cluster, sensitive = self.build_fleet()
        coordinator = FleetCoordinator(
            sensitive, config=StayAwayConfig(telemetry=False)
        )
        cluster.add_middleware(coordinator)
        cluster.run(10)
        fleet = coordinator.summary()["fleet"]
        assert fleet["hosts"] == 3
        assert fleet["controllers"]["cells"] == 2
        assert "fleet_violation_ratio" in fleet["qos"]
        assert {"mean", "hottest", "coldest"} <= set(fleet["scores"])
