"""Unit tests for cluster-level faults: crashes, recovery, blackout."""

import pytest

from repro.sim.cluster import Cluster
from repro.sim.container import Container
from repro.sim.faults import HostCrashInjector, TelemetryBlackout
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp
from tests.support.scripted_faults import HostRecoveryScript


def make_cluster(n=4, **kwargs):
    return Cluster(host_names=[f"h{i}" for i in range(n)], **kwargs)


class TestHostCrashInjector:
    def test_crash_and_auto_recovery(self):
        # probability 1 under a one-host cap: the first host in name
        # order goes down on the first tick and again the tick it is back.
        cluster = make_cluster()
        injector = HostCrashInjector(
            probability=1.0, recovery_ticks=3, max_down_fraction=0.25
        )
        cluster.add_middleware(injector)
        cluster.step()  # snapshots describe tick 0: crash fires
        assert not cluster.host_is_up("h0")
        cluster.run(2)
        assert not cluster.host_is_up("h0")
        injector.probability = 0.0  # let it stay up once recovered
        cluster.step()  # recovery due at tick 3
        assert cluster.host_is_up("h0")
        kinds = [(e.tick, e.kind, e.target) for e in injector.fired]
        assert kinds == [(0, "host-crash", "h0"), (3, "host-recover", "h0")]
        assert injector.summary()["crashes"] == 1

    def test_no_auto_recovery_when_disabled(self):
        cluster = make_cluster()
        injector = HostCrashInjector(
            probability=1.0, recovery_ticks=None, max_down_fraction=0.25
        )
        cluster.add_middleware(injector)
        cluster.run(20)
        assert not cluster.host_is_up("h0")
        assert injector.summary() == {
            "crashes": 1, "recoveries": 0, "crash_ticks": [0],
        }

    def test_probabilistic_crashes_are_deterministic(self):
        def run_once(extra_noise_middleware):
            cluster = make_cluster(n=8)
            if extra_noise_middleware:
                # A policy-arm stand-in that perturbs cluster state in
                # ways that must NOT change the fault script.
                class Meddler:
                    def on_cluster_tick(self, snapshots, cluster):
                        pass

                cluster.add_middleware(Meddler())
            injector = HostCrashInjector(
                seed=11, probability=0.05, recovery_ticks=5
            )
            cluster.add_middleware(injector)
            cluster.run(120)
            return [(e.tick, e.kind, e.target) for e in injector.fired]

        first = run_once(False)
        second = run_once(True)
        assert first == second
        assert any(kind == "host-crash" for _, kind, _ in first)

    def test_max_down_fraction_caps_outage(self):
        cluster = make_cluster(n=4)
        injector = HostCrashInjector(
            seed=1, probability=1.0, recovery_ticks=None, max_down_fraction=0.5
        )
        cluster.add_middleware(injector)
        cluster.run(10)
        assert len(cluster.down) == 2  # floor(0.5 * 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            HostCrashInjector(probability=1.5)
        with pytest.raises(ValueError):
            HostCrashInjector(recovery_ticks=0)
        with pytest.raises(ValueError):
            HostCrashInjector(max_down_fraction=0.0)


class TestHostRecoveryScript:
    def test_scripted_recovery(self):
        cluster = make_cluster()
        repair = HostRecoveryScript().recover_at(6, "h2")
        cluster.add_middleware(repair)
        cluster.step()
        cluster.fail_host("h2")
        cluster.run(5)
        assert not cluster.host_is_up("h2")
        cluster.step()
        assert cluster.host_is_up("h2")
        assert [e.kind for e in repair.fired] == ["host-recover"]

    def test_recover_up_host_is_noop(self):
        cluster = make_cluster()
        repair = HostRecoveryScript().recover_at(1, "h0")
        cluster.add_middleware(repair)
        cluster.run(3)
        assert repair.fired == []


class TestTelemetryBlackout:
    class Sink:
        def __init__(self):
            self.seen = []

        def on_cluster_tick(self, snapshots, cluster):
            self.seen.append(sorted(snapshots))

    def test_dark_hosts_are_hidden_and_recorded(self):
        cluster = make_cluster(n=3)
        sink = self.Sink()
        blackout = TelemetryBlackout(sink, seed=5, probability=0.5)
        cluster.add_middleware(blackout)
        cluster.run(20)
        dark = {(e.tick, e.target) for e in blackout.fired}
        assert 0 < len(dark) < 60  # some snapshots hidden, some delivered
        for tick, seen in enumerate(sink.seen):
            assert seen == [h for h in ("h0", "h1", "h2") if (tick, h) not in dark]

    def test_blackout_does_not_stop_the_host(self):
        cluster = make_cluster(n=2)
        app = ConstantApp(
            name="job", demand_vector=ResourceVector(cpu=1.0, memory=100.0)
        )
        cluster.host("h0").add_container(Container(name="job", app=app))
        sink = self.Sink()
        cluster.add_middleware(TelemetryBlackout(sink, probability=1.0))
        cluster.run(10)
        assert app.work_done > 0  # the machine kept running
        assert all("h0" not in seen for seen in sink.seen)

    def test_probabilistic_blackout_is_deterministic(self):
        def run_once():
            cluster = make_cluster(n=6)
            sink = self.Sink()
            blackout = TelemetryBlackout(sink, seed=5, probability=0.1)
            cluster.add_middleware(blackout)
            cluster.run(80)
            return [(e.tick, e.target) for e in blackout.fired]

        first = run_once()
        assert first == run_once()
        assert len(first) > 0

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            TelemetryBlackout(self.Sink(), probability=-0.1)
