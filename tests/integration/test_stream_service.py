"""Integration tests for the controller-as-a-service seam.

The tentpole contracts, end to end:

* **Replay determinism** — a recorded in-process run replayed through
  :class:`~repro.service.controller_service.ControllerService`
  reproduces the exact pause/resume decision sequence with a clean
  delivery census.
* **Fault tolerance** — the three-arm chaos drill runs under
  drop/reorder/duplicate/ack-drop faults with every actuator command
  reconciled at drain.
* **Stall degradation** — a frozen transport forces the controller
  DEGRADED; flowing data recovers it.
* **Scrape loop** — exposition text published by the
  :class:`~repro.service.exporter.UsageGaugeExporter` drives the
  service through the scrape source.
* **Fleet stream cells** — fleet cells whose ``controller_factory``
  returns a stream bridge survive the fleet chaos drill, including
  container departure via migration (cell retirement, not unbounded
  ghost imputation).
"""

import pytest

from repro.core.config import StayAwayConfig
from repro.core.events import EventKind
from repro.core.resilience import ControllerHealth
from repro.experiments.chaos import ClusterCrashGuard, FleetMix, build_fleet
from repro.experiments import stream_chaos
from repro.experiments.scenarios import Scenario
from repro.experiments.stream_chaos import (
    SimStreamBridge,
    StreamChaosMix,
    check_replay_determinism,
    record_reference,
    replay_records,
    run_stream_comparison,
    run_stream_drill,
)
from repro.fleet import FleetCoordinator
from repro.service import (
    ControllerService,
    JsonlReplaySource,
    QueueSource,
    ServiceState,
    SimHostActuator,
    StreamRecorder,
)
from repro.service.assembler import RETIRE_AFTER
from repro.sim.cluster import MIGRATION_LANDED, Cluster
from repro.sim.container import Container
from repro.sim.faults import HostCrashInjector, TelemetryBlackout
from repro.sim.host import Host
from repro.service.recording import write_stream_jsonl
from repro.workloads.registry import make_workload


def service_config(**overrides):
    return StayAwayConfig(seed=1, telemetry=False, **overrides)


class TestReplayDeterminism:
    def test_replay_reproduces_decision_sequence(self):
        result = check_replay_determinism(
            Scenario(ticks=240, seed=1), config=service_config()
        )
        assert result["match"], result["first_divergence"]
        assert result["clean_stream"]
        assert result["reference_decisions"] > 5
        assert result["replayed_decisions"] == result["reference_decisions"]

    @pytest.mark.parametrize(
        "replayed, first_divergence",
        [
            (["t10", "t20"], 2),  # truncated replay
            (["t10", "t20", "t30", "t40"], 3),  # replay runs on past the reference
            (["t10", "r20", "t30"], 1),
            (["t10", "t20", "t30"], None),
        ],
    )
    def test_first_divergence(self, monkeypatch, replayed, first_divergence):
        """A replay that is a strict prefix of the reference (or the other
        way round) diverges where the shorter sequence ends."""

        class Replayed:
            def decision_sequence(self):
                return replayed

            def summary(self):
                return {"telemetry": {"stream": {}}}

        reference = ["t10", "t20", "t30"]
        monkeypatch.setattr(
            stream_chaos, "record_reference", lambda scenario, config: ([], reference, None)
        )
        monkeypatch.setattr(
            stream_chaos, "replay_records", lambda records, config: Replayed()
        )
        result = check_replay_determinism(Scenario(ticks=10))
        assert result["match"] == (first_divergence is None)
        assert result["first_divergence"] == first_divergence

    def test_replay_through_jsonl_file(self, tmp_path):
        config = service_config()
        records, reference, _ = record_reference(
            Scenario(ticks=160, seed=3), config=config
        )
        path = write_stream_jsonl(tmp_path / "run.jsonl", records)
        service = ControllerService(
            JsonlReplaySource(path), config=service_config()
        )
        service.run()
        assert service.state is ServiceState.STOPPED
        assert service.decision_sequence() == reference
        census = service.summary()["telemetry"]["stream"]
        assert census["dropped"] == 0
        assert census["late"] == 0
        assert census["ticks_processed"] == 160

    def test_replay_is_self_deterministic(self):
        config = service_config()
        records, _, _ = record_reference(Scenario(ticks=120, seed=2), config)
        first = replay_records(records, config=service_config())
        second = replay_records(records, config=service_config())
        assert first.decision_sequence() == second.decision_sequence()

    def test_recorded_and_live_streams_equal_record_for_record(self):
        """One host, two publishers: what the recorder keeps is what the
        live bridge pushed (header once, discovered sensitive app, every
        sample/state/qos record) while the service throttles the host."""
        from repro.sim.engine import SimulationEngine

        class TeeSink:
            def __init__(self, queue):
                self.queue = queue
                self.pushed = []

            def push(self, records):
                self.pushed.extend(records)
                self.queue.push(records)

        scenario = Scenario(ticks=160, seed=3)
        built = scenario.build(include_batch=True)
        queue = QueueSource()
        service = ControllerService(
            queue, actuator=SimHostActuator(built.host), config=service_config()
        )
        service.start()
        sink = TeeSink(queue)
        recorder = StreamRecorder()
        engine = SimulationEngine(built.host)
        engine.add_middleware(recorder)
        engine.add_middleware(SimStreamBridge(service, sink))
        engine.run(ticks=scenario.ticks)
        assert len(service.decision_sequence()) > 0
        assert [r["kind"] for r in sink.pushed].count("header") == 1
        assert any(r["kind"] == "qos" for r in sink.pushed)
        assert recorder.records == sink.pushed


class TestChaosArms:
    def test_three_arms_run_and_reconcile(self):
        comparison = run_stream_comparison(
            Scenario(ticks=300, seed=1),
            mix=StreamChaosMix(seed=5, ack_drop=0.3),
            config=service_config(),
        )
        arms = comparison.arms
        assert list(arms) == ["fault_free", "assembled", "passthrough"]
        for arm in arms.values():
            assert arm.service.state is ServiceState.STOPPED
            assert arm.unreconciled_commands() == 0
        assert arms["fault_free"].faults_injected() == 0
        # Both faulted arms see a substantial fault load. (The counts
        # are not identical: each arm's own actuation feeds back into
        # which records — qos reports, ack attempts — exist at all.)
        assert arms["assembled"].faults_injected() > 50
        assert arms["passthrough"].faults_injected() > 50
        census = arms["assembled"].service.summary()["telemetry"]["stream"]
        assert census["duplicated"] > 0
        assert census["imputed"] > 0
        summary = comparison.summary()
        assert {"assembled_deviation", "passthrough_deviation",
                "assembler_better"} <= set(summary)

    def test_ack_drops_force_retries(self):
        drill = run_stream_drill(
            Scenario(ticks=200, seed=1),
            mix=StreamChaosMix(seed=5, drop=0.0, reorder=0.0, duplicate=0.0,
                               ack_drop=0.6),
            config=service_config(),
        )
        actuator = drill.service.tracker.summary()
        assert actuator["retries"] > 0
        assert actuator["pending"] == 0
        assert len(drill.ack_dropper.dropped_acks) > 0

    def test_stall_window_degrades_then_recovers(self):
        drill = run_stream_drill(
            Scenario(ticks=300, seed=1),
            mix=StreamChaosMix(
                seed=5, drop=0.0, reorder=0.0, duplicate=0.0,
                stall_windows=((100, 140),),
            ),
            config=service_config(),
        )
        census = drill.service.summary()["telemetry"]["stream"]
        assert census["stall_degrades"] >= 1
        health = drill.service.controller.health
        assert any(
            state is ControllerHealth.DEGRADED and "stream-stall" in reasons
            for _, state, reasons in health.transitions
        )
        # Data flowed again after the window: not stuck in DEGRADED.
        assert health.state is not ControllerHealth.DEGRADED


class TestReconnect:
    def test_source_failures_trigger_backoff_and_reconnect(self):
        config = service_config()
        records, _, _ = record_reference(Scenario(ticks=80, seed=1), config)
        queue = QueueSource()
        queue.push(records)
        queue.close()
        queue.fail_polls = 3
        service = ControllerService(queue, config=service_config())
        service.run(max_cycles=500)
        census = service.summary()["telemetry"]["stream"]
        assert queue.reconnects >= 1
        assert census["reconnects"] == queue.reconnects
        assert census["ticks_processed"] == 80  # nothing lost to the outage


class TestRestartAdoption:
    def test_a_fresh_service_resumes_the_batch_it_finds_paused(self):
        """A service (re)started next to a batch container its
        predecessor left paused adopts it and hands it back."""
        from repro.sim.engine import SimulationEngine

        class LoggingActuator(SimHostActuator):
            def __init__(self, host):
                super().__init__(host)
                self.delivered = []

            def deliver(self, command, tick):
                self.delivered.append((command.verb, command.container))
                return super().deliver(command, tick)

        scenario = Scenario(ticks=300, batch_start=0, seed=1)
        built = scenario.build(include_batch=True)
        (batch,) = [app.name for app in built.batch_apps]
        built.host.step()
        assert built.host.pause(batch)  # what the previous controller left

        queue = QueueSource()
        actuator = LoggingActuator(built.host)
        service = ControllerService(queue, actuator=actuator, config=service_config())
        service.start()
        SimulationEngine(built.host, [SimStreamBridge(service, queue)]).run(
            ticks=scenario.ticks - 1
        )
        service.drain()

        events = service.controller.events
        adopted = [e for e in events.of_kind(EventKind.RECONCILE) if e.detail["action"] == "adopt"]
        assert [e.detail["targets"] for e in adopted] == [[batch]]
        assert adopted[0].tick == 1  # the service's first closed tick
        assert actuator.delivered[0] == ("resume", batch)


class TestScrapeLoop:
    def test_exporter_to_service_end_to_end(self):
        from repro.service import PrometheusScrapeSource
        from repro.service.exporter import UsageGaugeExporter
        from repro.sim.engine import SimulationEngine

        scenario = Scenario(ticks=150, seed=1)
        built = scenario.build(include_batch=True)
        exporter = UsageGaugeExporter(sensitive_app=built.sensitive_app)
        service = ControllerService(
            PrometheusScrapeSource(exporter.scrape),
            config=service_config(),
        )
        service.start()

        class ScrapeBridge:
            def on_tick(self, snapshot, host):
                service.pump()

        engine = SimulationEngine(built.host)
        engine.add_middleware(exporter)
        engine.add_middleware(ScrapeBridge())
        engine.run(ticks=scenario.ticks)
        service.drain()
        census = service.summary()["telemetry"]["stream"]
        # Scrape-per-tick keeps up: every tick ingested, none fabricated.
        assert census["ticks_processed"] == scenario.ticks - 1 + 1
        assert census["gap_ticks"] == 0
        assert len(service.decision_sequence()) > 0


class TestFleetStreamCells:
    def test_stream_cell_mode_survives_fleet_chaos(self):
        """The coordinator arm of ``run_fleet_drill`` with every cell's
        controller behind the stream seam: the factory returns the live
        tick publisher feeding one service per host, whose decisions
        travel back through the acknowledged actuator."""
        config = StayAwayConfig(telemetry=False)
        mix = FleetMix(hosts=6, ticks=100, drain_ticks=30, seed=2)
        cluster, sensitive = build_fleet(mix)
        services = {}

        def stream_cell(host_name, app):
            queue = QueueSource()
            service = services[host_name] = ControllerService(
                queue,
                actuator=SimHostActuator(cluster.hosts[host_name]),
                config=config,
            )
            service.start()
            return SimStreamBridge(
                service, queue, sensitive_app=app, host_name=host_name
            )

        coordinator = FleetCoordinator(
            sensitive, config=config, controller_factory=stream_cell
        )
        guard = ClusterCrashGuard(
            TelemetryBlackout(
                coordinator, seed=mix.seed + 11, probability=mix.blackout
            )
        )
        cluster.add_middleware(guard)
        crash_injector = HostCrashInjector(
            seed=mix.seed + 23,
            probability=mix.host_crash,
            recovery_ticks=mix.recovery_ticks,
            max_down_fraction=mix.max_down_fraction,
        )
        cluster.add_middleware(crash_injector)
        cluster.run(mix.ticks)
        crash_injector.probability = 0.0
        cluster.run(mix.drain_ticks)

        assert guard.crashed_at is None
        assert coordinator.cells
        assert sum(cell.crashes for cell in coordinator.cells.values()) == 0
        for host_name, cell in coordinator.cells.items():
            assert cell.controller is services[host_name].controller
            census = services[host_name].summary()["telemetry"]["stream"]
            assert census["ticks_processed"] > 0
            # Migration-departed containers retire instead of being
            # imputed as ghosts for the rest of the run.
            assert census["imputed"] <= 8 * 5 * (census["cells_retired"] + 1)
        self.check_departures_leave_the_old_host(cluster, services, config)

    @staticmethod
    def check_departures_leave_the_old_host(cluster, services, config):
        """A migrated-off container retires from its old host's table:
        once that has had time to happen, the old host's controller
        neither names it in an event nor holds a command for it."""
        quiet_after = RETIRE_AFTER + config.stream_watermark
        landed = [m for m in cluster.migrations if m.outcome == MIGRATION_LANDED]
        assert landed
        for record in landed:
            returns = [
                m.start_tick
                for m in cluster.migrations
                if (m.container, m.destination) == (record.container, record.source)
                and m.start_tick > record.start_tick
            ]
            quiet = range(record.completed_tick + quiet_after, min(returns, default=10**9))
            service = services[record.source]
            for event in service.controller.events:
                named = set(event.detail.get("targets", ())) | {event.detail.get("target")}
                assert event.tick not in quiet or record.container not in named, event
            if not returns:
                assert record.container not in service.tracker.pending_containers()


class TestDegradedStreamCell:
    def test_fallback_reads_the_apps_live_qos(self):
        """A stream cell whose bridge fails falls back to reactive
        control, which must see the app's QoS as it is now: the stream
        channel stays frozen at the last report the bridge carried."""
        host = Host()
        app = make_workload("vlc-streaming", seed=3)
        bomb = make_workload("cpubomb", seed=4)
        host.add_container(Container(name=app.name, app=app, sensitive=True))
        host.add_container(Container(name=bomb.name, app=bomb))
        cluster = Cluster(hosts={"h0": host})
        config = service_config()

        class FailingBridge(SimStreamBridge):
            def on_tick(self, snapshot, host):
                if snapshot.tick >= 150:
                    raise RuntimeError("bridge down")
                super().on_tick(snapshot, host)

        def stream_cell(host_name, sensitive_app):
            queue = QueueSource()
            service = ControllerService(
                queue, actuator=SimHostActuator(cluster.hosts[host_name]), config=config
            )
            service.start()
            return FailingBridge(service, queue, sensitive_app=sensitive_app)

        coordinator = FleetCoordinator(
            {"h0": app}, config=config, migrate=False, controller_factory=stream_cell
        )
        cluster.add_middleware(coordinator)
        degraded = disagreements = bomb_paused = 0
        for _ in range(600):
            cluster.step()
            cell = coordinator.cells["h0"]
            if not cell.degraded:
                continue
            degraded += 1
            report = app.qos_report()
            live = report is not None and report.violated
            disagreements += cell.violation_now != live
            bomb_paused += host.containers[bomb.name].is_paused
        assert degraded == 450
        assert disagreements == 0
        assert bomb_paused > 0
