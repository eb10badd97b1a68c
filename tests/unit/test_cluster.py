"""Unit tests for the multi-host cluster and migration."""

import pytest

from repro.sim.cluster import Cluster
from repro.sim.container import Container
from repro.sim.host import Host
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp, CountingApp, SensitiveStub


def make_cluster(**kwargs):
    return Cluster(host_names=["h1", "h2"], **kwargs)


class TestConstruction:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            Cluster()
        with pytest.raises(ValueError):
            Cluster(host_names=["a"], hosts={"a": Host()})

    def test_prebuilt_hosts_share_clock(self):
        hosts = {"a": Host(), "b": Host()}
        cluster = Cluster(hosts=hosts)
        assert hosts["a"].clock is cluster.clock
        assert hosts["b"].clock is cluster.clock

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Cluster(host_names=[])

    def test_migration_rate_validated(self):
        with pytest.raises(ValueError):
            make_cluster(migration_mb_per_tick=0.0)


class TestStepping:
    def test_lockstep_clock(self):
        cluster = make_cluster()
        cluster.step()
        cluster.step()
        assert cluster.clock.tick == 2
        for host in cluster.hosts.values():
            assert host.last_snapshot.tick == 1

    def test_run(self):
        cluster = make_cluster()
        snapshots = cluster.run(5)
        assert len(snapshots) == 5
        assert set(snapshots[0]) == {"h1", "h2"}

    def test_negative_run_rejected(self):
        with pytest.raises(ValueError):
            make_cluster().run(-1)

    def test_middleware_hook(self):
        events = []

        class Recorder:
            def on_cluster_tick(self, snapshots, cluster):
                events.append(cluster.clock.tick)

        cluster = make_cluster()
        cluster.add_middleware(Recorder())
        cluster.run(3)
        assert events == [1, 2, 3]


class TestMigration:
    def add_app(self, cluster, host, name, memory=1000.0):
        app = ConstantApp(
            name=name, demand_vector=ResourceVector(cpu=1.0, memory=memory)
        )
        cluster.host(host).add_container(Container(name=name, app=app))
        return app

    def test_host_of(self):
        cluster = make_cluster()
        self.add_app(cluster, "h1", "job")
        assert cluster.host_of("job") == "h1"
        assert cluster.host_of("ghost") is None

    def test_migrate_moves_container_after_downtime(self):
        cluster = make_cluster(migration_mb_per_tick=500.0)
        self.add_app(cluster, "h1", "job", memory=1000.0)
        cluster.step()  # container starts and consumes memory
        record = cluster.migrate("job", "h2")
        assert record.downtime_ticks == 2  # 1000 MB at 500 MB/tick
        assert cluster.host_of("job") is None  # in flight
        cluster.step()
        assert cluster.host_of("job") is None
        cluster.step()
        cluster.step()
        assert cluster.host_of("job") == "h2"
        assert cluster.host("h2").container("job").is_running

    def test_migration_validations(self):
        cluster = make_cluster()
        self.add_app(cluster, "h1", "job")
        with pytest.raises(ValueError):
            cluster.migrate("ghost", "h2")
        with pytest.raises(ValueError):
            cluster.migrate("job", "nonexistent")
        with pytest.raises(ValueError):
            cluster.migrate("job", "h1")

    def test_migration_costs_downtime_work(self):
        """The paper's point: migration is slow — the job makes no
        progress while its image is copied."""
        cluster = make_cluster(migration_mb_per_tick=250.0)
        app = self.add_app(cluster, "h1", "job", memory=1000.0)
        cluster.run(3)
        work_before = app.work_done
        cluster.migrate("job", "h2")  # 4 ticks of downtime
        cluster.run(4)
        assert app.work_done == pytest.approx(work_before)
        cluster.run(3)
        assert app.work_done > work_before

    def test_migrate_does_not_probe_app_demand(self):
        # Regression: sizing a paused/idle container's memory image by
        # probing app.demand() advanced the app's private jitter RNG
        # outside the tick loop, desyncing otherwise-identical runs.
        app = CountingApp()
        cluster = make_cluster()
        cluster.host("h1").add_container(Container(name="c", app=app))
        cluster.step()
        cluster.host("h1").pause("c")
        cluster.step()
        calls_before = app.demand_calls
        record = cluster.migrate("c", "h2")
        assert app.demand_calls == calls_before
        # Downtime still sized from the last granted memory.
        assert record.downtime_ticks == 1

    def test_migrate_uses_last_granted_memory(self):
        cluster = make_cluster(migration_mb_per_tick=1000.0)
        cluster.host("h1").add_container(
            Container(name="c", app=CountingApp(memory=2500.0))
        )
        cluster.step()
        cluster.host("h1").pause("c")
        cluster.step()
        record = cluster.migrate("c", "h2")
        assert record.downtime_ticks == 3  # ceil(2500 / 1000)

    def test_in_flight_listing(self):
        cluster = make_cluster(migration_mb_per_tick=100.0)
        self.add_app(cluster, "h1", "job", memory=1000.0)
        cluster.step()
        record = cluster.migrate("job", "h2")
        in_flight = cluster.locate("job")
        assert (in_flight.status, in_flight.record) == ("migrating", record)
        cluster.run(11)
        landed = cluster.locate("job")
        assert (landed.status, landed.host) != ("migrating", "h1")
        assert landed.host == "h2" and record.outcome == "landed"

    def test_total_cpu_utilization(self):
        cluster = make_cluster()
        self.add_app(cluster, "h1", "job")
        cluster.step()
        utilization = cluster.total_cpu_utilization()
        assert 0.0 < utilization < 1.0


class TestLocate:
    def add_app(self, cluster, host, name, memory=1000.0):
        app = ConstantApp(
            name=name, demand_vector=ResourceVector(cpu=1.0, memory=memory)
        )
        cluster.host(host).add_container(Container(name=name, app=app))
        return app

    def test_locate_distinguishes_all_three_states(self):
        cluster = make_cluster(migration_mb_per_tick=500.0)
        self.add_app(cluster, "h1", "job")
        cluster.step()
        on_host = cluster.locate("job")
        assert (on_host.status, on_host.host) == ("on-host", "h1")
        assert on_host.record is None

        record = cluster.migrate("job", "h2")
        migrating = cluster.locate("job")
        assert migrating.status == "migrating"
        assert migrating.host is None
        assert migrating.record is record

        absent = cluster.locate("ghost")
        assert (absent.status, absent.host, absent.record) == ("absent", None, None)

    def test_double_migrate_in_flight_raises_clear_error(self):
        cluster = make_cluster(migration_mb_per_tick=100.0)
        self.add_app(cluster, "h1", "job", memory=1000.0)
        cluster.step()
        cluster.migrate("job", "h2")
        with pytest.raises(ValueError, match="already migrating"):
            cluster.migrate("job", "h2")
        # The error is not the misleading "not found" of old.
        with pytest.raises(ValueError, match="h1 -> h2"):
            cluster.migrate("job", "h1")


class TestHostFailure:
    def add_app(self, cluster, host, name, memory=1000.0):
        app = ConstantApp(
            name=name, demand_vector=ResourceVector(cpu=1.0, memory=memory)
        )
        cluster.host(host).add_container(Container(name=name, app=app))
        return app

    def test_fail_and_recover_host(self):
        cluster = make_cluster()
        assert cluster.fail_host("h1") is True
        assert not cluster.host_is_up("h1")
        assert cluster.fail_host("h1") is False  # already down
        assert cluster.up_hosts == ["h2"]
        snapshots = cluster.step()
        assert set(snapshots) == {"h2"}  # down host contributes nothing
        assert cluster.recover_host("h1") is True
        assert cluster.recover_host("h1") is False
        assert set(cluster.step()) == {"h1", "h2"}
        kinds = [e.kind for e in cluster.host_events]
        assert kinds == ["crash", "recover"]

    def test_fail_unknown_host_raises(self):
        with pytest.raises(KeyError):
            make_cluster().fail_host("nope")

    def test_down_host_freezes_containers(self):
        cluster = make_cluster()
        app = self.add_app(cluster, "h1", "job")
        cluster.run(3)
        work = app.work_done
        cluster.fail_host("h1")
        cluster.run(5)
        assert app.work_done == pytest.approx(work)
        cluster.recover_host("h1")
        cluster.run(3)
        assert app.work_done > work

    def test_migrate_rejects_down_endpoints(self):
        cluster = make_cluster()
        self.add_app(cluster, "h1", "job")
        cluster.step()
        cluster.fail_host("h2")
        with pytest.raises(ValueError, match="down"):
            cluster.migrate("job", "h2")
        cluster.recover_host("h2")
        cluster.fail_host("h1")
        with pytest.raises(ValueError, match="down"):
            cluster.migrate("job", "h2")


class TestMigrationOutcomes:
    def add_app(self, cluster, host, name, memory=1000.0):
        app = ConstantApp(
            name=name, demand_vector=ResourceVector(cpu=1.0, memory=memory)
        )
        cluster.host(host).add_container(Container(name=name, app=app))
        return app

    def test_landing_exactly_at_done_at(self):
        cluster = make_cluster(migration_mb_per_tick=500.0)
        self.add_app(cluster, "h1", "job", memory=1000.0)
        cluster.step()
        record = cluster.migrate("job", "h2")
        due = record.done_at()
        assert due == record.start_tick + 2
        # One tick before due: still in flight.
        while cluster.clock.tick < due:
            cluster.step()
            if cluster.clock.tick < due:
                assert cluster.locate("job").status == "migrating"
        # The step *at* the due tick lands it (land runs before stepping).
        cluster.step()
        assert cluster.locate("job").status == "on-host"
        assert record.outcome == "landed"
        assert record.completed_tick >= due

    def test_zero_resident_memory_still_costs_a_tick(self):
        """A never-started container reports zero usage; downtime falls
        back to demand and is floored at one tick."""
        cluster = make_cluster(migration_mb_per_tick=10_000.0)
        app = ConstantApp(
            name="fresh", demand_vector=ResourceVector(cpu=1.0, memory=0.0)
        )
        cluster.host("h1").add_container(Container(name="fresh", app=app))
        # No step: the container has never run, usage is zero and the
        # app demands zero memory too.
        record = cluster.migrate("fresh", "h2")
        assert record.downtime_ticks == 1
        cluster.step()
        cluster.step()
        assert record.outcome == "landed"

    def test_destination_crash_between_start_and_land_bounces(self):
        cluster = make_cluster(migration_mb_per_tick=250.0)
        self.add_app(cluster, "h1", "job", memory=1000.0)
        cluster.step()
        record = cluster.migrate("job", "h2")  # 4 ticks of copy
        cluster.step()
        cluster.fail_host("h2")
        cluster.run(5)
        assert record.outcome == "bounced"
        assert cluster.locate("job").status == "on-host"
        assert cluster.locate("job").host == "h1"
        assert cluster.host("h1").container("job").is_running

    def test_both_ends_dead_loses_container(self):
        cluster = Cluster(host_names=["h1", "h2", "h3"],
                          migration_mb_per_tick=250.0)
        self.add_app(cluster, "h1", "job", memory=1000.0)
        cluster.step()
        record = cluster.migrate("job", "h2")
        cluster.fail_host("h2")
        cluster.fail_host("h1")
        cluster.run(5)
        assert record.outcome == "lost"
        assert cluster.locate("job").status == "absent"

    def test_cancel_migration_bounces_immediately(self):
        cluster = make_cluster(migration_mb_per_tick=100.0)
        self.add_app(cluster, "h1", "job", memory=1000.0)
        cluster.step()
        record = cluster.migrate("job", "h2")
        outcome = cluster.cancel_migration(record)
        assert outcome == "bounced"
        assert cluster.locate("job").host == "h1"
        with pytest.raises(ValueError):
            cluster.cancel_migration(record)  # not in flight any more

    def test_every_record_reaches_terminal_outcome(self):
        cluster = Cluster(host_names=["h1", "h2", "h3"],
                          migration_mb_per_tick=500.0)
        for i, host in enumerate(("h1", "h2", "h3")):
            self.add_app(cluster, host, f"job-{i}")
        cluster.step()
        cluster.migrate("job-0", "h2")
        cluster.migrate("job-1", "h3")
        cluster.fail_host("h3")  # job-1's destination dies mid-copy
        cluster.run(6)
        outcomes = {r.container: r.outcome for r in cluster.migrations}
        assert outcomes == {"job-0": "landed", "job-1": "bounced"}
