"""Stream-transport chaos drills for the controller service.

The service stack (:mod:`repro.service`) claims two things worth
drilling, and this module drills both against the live simulator:

* **Replay determinism** — an in-process run recorded as wire records
  and replayed through :class:`~repro.service.controller_service.
  ControllerService` must reproduce the in-process controller's
  pause/resume decision sequence *exactly*
  (:func:`check_replay_determinism`).
* **Fault tolerance** — under seeded transport faults (drop, reorder,
  duplicate, stall, lost acks) the watermark assembler must keep the
  sensitive application's ground-truth QoS close to the fault-free
  run, while the assembler-less :class:`~repro.service.assembler.
  PassthroughAssembler` arm deviates much further — either by letting
  violations through or by over-throttling the batch tier into a
  large utilization shortfall (:func:`run_stream_comparison`).

The live topology mirrors a real deployment split across processes:
a :class:`SimStreamBridge` middleware publishes every engine tick as
wire records (it is the :class:`~repro.service.recording.
StreamPublisher` the recorder is, with a queue in place of the kept
list, so recorded and live streams are equal record for record) into a
:class:`~repro.service.stream.QueueSource`; the service
polls that queue through a chain of seeded fault wrappers from
:mod:`repro.sim.faults`; its decisions travel back to the *live* host
through a :class:`~repro.service.actuator.SimHostActuator`. An
independent :class:`~repro.monitoring.qos.QosTracker` rides the
engine outside the stream entirely, so every arm is measured by the
same ground-truth instrument regardless of what its stream shows it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.experiments.chaos import DrillComparison, DrillResult
from repro.experiments.scenarios import BuiltScenario, Scenario, batch_work
from repro.monitoring.qos import QosTracker
from repro.sim.engine import SimulationEngine
from repro.sim.faults import (
    ActuatorAckDropper,
    StreamDropper,
    StreamDuplicator,
    StreamReorderer,
    StreamStaller,
)
from repro.service import (
    ControllerService,
    PassthroughAssembler,
    QueueSource,
    SimHostActuator,
    StreamPublisher,
    StreamRecorder,
    decision_sequence,
)

#: Safety bound on post-run flush cycles (reorderer-held records drain
#: within ``max_delay`` polls; anything beyond this is a wrapper bug).
_FLUSH_CYCLE_CAP = 256


@dataclass(frozen=True)
class StreamChaosMix:
    """Knobs of the seeded stream-transport fault cocktail.

    Parameters
    ----------
    seed:
        Base seed; each wrapper derives its own offset and every fault
        decision is a pure function of ``(seed, tick, record)``, so
        the fault script is identical across the arms under
        comparison.
    drop:
        Per-record probability a tick-bearing record is lost.
    reorder / reorder_max_delay:
        Per-record probability a record is delayed ``1..max_delay``
        polls (arriving behind newer ticks).
    duplicate:
        Per-record probability of an at-least-once redelivery.
    stall_windows:
        ``(start, end)`` poll-index windows during which the transport
        goes silent (data delayed, not lost) — what the service's
        stall-deadline degradation watches for.
    ack_drop:
        Probability a pause/resume lands but its ack is lost, forcing
        the tracker through its retry path.
    """

    seed: int = 0
    drop: float = 0.05
    reorder: float = 0.1
    reorder_max_delay: int = 3
    duplicate: float = 0.1
    stall_windows: Tuple[Tuple[int, int], ...] = ()
    ack_drop: float = 0.0


class SimStreamBridge(StreamPublisher):
    """The tick publisher, live: push into ``sink``, then pump.

    Registered on the engine, it plays the monitoring agent: each
    tick's records (built by :meth:`StreamPublisher.on_tick`) go into
    ``sink`` (the queue at the bottom of the fault chain) instead of
    being kept. It then runs one service cycle, so the service's clock
    advances with the host's — lagging by the watermark, exactly as a
    remote controller would. ``controller`` is the serviced controller,
    which is what lets a
    :class:`~repro.fleet.coordinator.FleetCoordinator`
    ``controller_factory`` return a bridge as a stream-backed cell.
    """

    def __init__(self, service, sink, sensitive_app=None, host_name="host0"):
        super().__init__(sensitive_app=sensitive_app, host_name=host_name)
        self.service = service
        self.sink = sink
        self.controller = service.controller
        self._qos: Optional[QosTracker] = None

    @property
    def qos(self) -> QosTracker:
        """A host-local channel on the app this bridge publishes QoS from.

        A fleet cell reads it while the bridge is down: the serviced
        controller's channel only hears the app through this bridge.
        """
        if self._qos is None:
            self._qos = QosTracker(self.sensitive_app)
        return self._qos

    def publish(self, records: List[dict]) -> None:
        self.sink.push(records)
        self.service.pump()


@dataclass
class StreamDrillResult(DrillResult):
    """Outcome of one stream chaos drill arm, scored by a ground-truth
    QoS tracker riding outside the stream (no guard).

    Attributes
    ----------
    scenario / mix:
        What was run; ``mix`` is None in the fault-free arm.
    built / service:
        The instantiated scenario and the serviced controller.
    fired:
        The installed transport wrappers' fault records, one list each.
    ack_dropper:
        The ack filter, when the mix drops acks.
    passthrough:
        True in the assembler-less ablation arm.
    """

    scenario: Scenario
    mix: Optional[StreamChaosMix]
    built: BuiltScenario
    service: ControllerService
    fired: List[list] = field(default_factory=list)
    ack_dropper: Optional[ActuatorAckDropper] = None
    passthrough: bool = False

    def batch_work(self) -> float:
        """Total work the batch applications retired."""
        return batch_work(self.built.batch_apps)

    def faults_injected(self) -> int:
        """Total transport + ack faults the script actually fired."""
        total = sum(len(records) for records in self.fired)
        if self.ack_dropper is not None:
            total += len(self.ack_dropper.dropped_acks)
        return total

    def unreconciled_commands(self) -> int:
        """Commands neither acked nor dead-lettered after drain (want 0)."""
        return len(self.service.tracker.pending())

    def summary(self) -> dict:
        stream = self.service.summary()["telemetry"].get("stream", {})
        return {
            "arm": (
                "fault-free"
                if self.mix is None
                else ("passthrough" if self.passthrough else "assembled")
            ),
            "violation_ratio": self.violation_ratio(),
            "batch_work": self.batch_work(),
            "decisions": len(self.service.decision_sequence()),
            "faults_injected": self.faults_injected(),
            "unreconciled_commands": self.unreconciled_commands(),
            "dead_letters": len(self.service.tracker.dead_letters),
            "stream": stream,
        }


def run_stream_drill(
    scenario: Scenario,
    mix: Optional[StreamChaosMix] = None,
    config: Optional[StayAwayConfig] = None,
    passthrough: bool = False,
) -> StreamDrillResult:
    """Run one scenario with the controller behind a (faulty) stream.

    ``mix=None`` is the fault-free arm: the same stream topology with
    no wrappers installed — the baseline the chaos gate compares
    against. ``passthrough=True`` swaps in the assembler-less
    :class:`~repro.service.assembler.PassthroughAssembler` (the
    ablation arm); everything else, including the fault script, is
    identical.
    """
    config = config if config is not None else StayAwayConfig()
    built = scenario.build(include_batch=True)
    host = built.host

    queue = QueueSource()
    source = queue
    fired: List[list] = []
    ack_dropper: Optional[ActuatorAckDropper] = None
    if mix is not None:
        if mix.drop > 0:
            source = StreamDropper(source, seed=mix.seed + 11, probability=mix.drop)
            fired.append(source.dropped)
        if mix.reorder > 0:
            source = StreamReorderer(
                source, seed=mix.seed + 13, probability=mix.reorder, max_delay=mix.reorder_max_delay
            )
            fired.append(source.delayed)
        if mix.duplicate > 0:
            source = StreamDuplicator(source, seed=mix.seed + 17, probability=mix.duplicate)
            fired.append(source.duplicated)
        if mix.stall_windows:
            source = StreamStaller(source, windows=list(mix.stall_windows))
            fired.append(source.stalled_polls)
        if mix.ack_drop > 0:
            ack_dropper = ActuatorAckDropper(
                seed=mix.seed + 19, probability=mix.ack_drop
            )

    actuator = SimHostActuator(host, ack_filter=ack_dropper)
    assembler = PassthroughAssembler() if passthrough else None
    service = ControllerService(
        source, actuator=actuator, config=config, assembler=assembler
    )
    service.start()

    audit = QosTracker(built.sensitive_app)
    bridge = SimStreamBridge(service, queue, sensitive_app=built.sensitive_app)
    SimulationEngine(host, [bridge, audit]).run(ticks=scenario.ticks)

    # The host is done: close the transport, let held/delayed records
    # drain, then resolve every in-flight actuator command.
    queue.close()
    service.run(max_cycles=_FLUSH_CYCLE_CAP)

    return StreamDrillResult(
        audit=audit,
        guard=None,
        scenario=scenario,
        mix=mix,
        built=built,
        service=service,
        fired=fired,
        ack_dropper=ack_dropper,
        passthrough=passthrough,
    )


def _deviation_verdict(comparison: DrillComparison) -> dict:
    """The stream drill scores *deviation from the fault-free arm*.

    Not raw violation ratio: the naive passthrough arm does not fail by
    letting violations through — its zero-filled cells poison the state
    map into chronic over-throttling, which buys an artificially *low*
    violation ratio by starving the batch tier (a large
    :meth:`StreamDrillResult.batch_work` shortfall). Either distortion
    — excess violations or phantom throttling — departs from the
    controller's intended behavior, and ``|arm - fault-free|`` captures
    both directions.

    ``degradation`` is the chaos gate's headline number, the assembled
    arm's violation ratio relative to fault-free: ``<= 2.0`` means the
    watermark assembler held the line. When the fault-free arm is
    violation-free, any assembled violation counts as infinite
    degradation (and 0/0 is a clean 1.0). ``assembler_better`` is True
    when the assembled arm tracks fault-free strictly closer than the
    assembler-less arm does.
    """
    base = comparison.arms["fault_free"].violation_ratio()
    assembled = comparison.arms["assembled"].violation_ratio()
    passthrough = comparison.arms["passthrough"].violation_ratio()
    if base == 0.0:
        degradation = 1.0 if assembled == 0.0 else float("inf")
    else:
        degradation = assembled / base
    return {
        "degradation": degradation,
        "assembled_deviation": abs(assembled - base),
        "passthrough_deviation": abs(passthrough - base),
        "assembler_better": abs(assembled - base) < abs(passthrough - base),
    }


def run_stream_comparison(
    scenario: Scenario,
    mix: Optional[StreamChaosMix] = None,
    config: Optional[StayAwayConfig] = None,
) -> DrillComparison:
    """Run ``fault_free``, ``assembled`` (+faults) and ``passthrough``
    (+faults) arms, scored by :func:`_deviation_verdict`.

    Scenario seeds and the fault script are shared, so any difference
    between the assembled and passthrough arms is attributable to the
    watermark assembler alone.
    """
    mix = mix if mix is not None else StreamChaosMix()
    return DrillComparison(
        arms={
            "fault_free": run_stream_drill(scenario, mix=None, config=config),
            "assembled": run_stream_drill(scenario, mix=mix, config=config),
            "passthrough": run_stream_drill(
                scenario, mix=mix, config=config, passthrough=True
            ),
        },
        control="passthrough",
        treated="assembled",
        verdict=_deviation_verdict,
    )


# ---------------------------------------------------------------------------
# Replay determinism: recorded wire stream vs the in-process controller
# ---------------------------------------------------------------------------

def record_reference(
    scenario: Scenario, config: Optional[StayAwayConfig] = None
) -> Tuple[List[dict], List[dict], StayAway]:
    """Run a scenario in-process and capture its wire-record stream.

    Returns ``(records, decisions, controller)`` — the recorder's
    output, the in-process controller's decision sequence (the replay
    gate's reference) and the controller itself for deeper assertions.
    The recorder is registered *before* the controller so it captures
    the same snapshot the controller acts on, pre-actuation.
    """
    built = scenario.build(include_batch=True)
    controller = StayAway(built.sensitive_app, config=config)
    recorder = StreamRecorder(sensitive_app=built.sensitive_app)
    SimulationEngine(built.host, [recorder, controller]).run(ticks=scenario.ticks)
    return recorder.records, decision_sequence(controller), controller


def replay_records(
    records: List[dict], config: Optional[StayAwayConfig] = None
) -> ControllerService:
    """Replay wire records through a fresh service, to completion."""
    source = QueueSource()
    source.push(records)
    source.close()
    service = ControllerService(source, config=config)
    service.run()
    return service


def check_replay_determinism(
    scenario: Scenario, config: Optional[StayAwayConfig] = None
) -> dict:
    """The replay-determinism gate: record, replay, diff decisions.

    ``match`` is True iff the replayed service produced the identical
    THROTTLE/RESUME/PROBE_RESUME sequence (same ticks, same kinds,
    same targets) as the in-process controller — plus a clean-stream
    sanity check: a lossless replay must not count a single dropped,
    duplicated, late or imputed record.
    """
    records, reference, _ = record_reference(scenario, config=config)
    service = replay_records(records, config=config)
    replayed = service.decision_sequence()
    stream = service.summary()["telemetry"].get("stream", {})
    clean = all(
        stream.get(key, 0) == 0
        for key in ("dropped", "duplicated", "late", "imputed")
    )
    first_divergence = None
    if replayed != reference:
        # A sequence that is a strict prefix of the other diverges
        # where the shorter one ends.
        first_divergence = next(
            (i for i, (a, b) in enumerate(zip(reference, replayed)) if a != b),
            min(len(reference), len(replayed)),
        )
    return {
        "reference_decisions": len(reference),
        "replayed_decisions": len(replayed),
        "match": replayed == reference,
        "clean_stream": clean,
        "first_divergence": first_divergence,
        "stream": stream,
    }


__all__ = [
    "SimStreamBridge",
    "StreamChaosMix",
    "StreamDrillResult",
    "check_replay_determinism",
    "record_reference",
    "replay_records",
    "run_stream_comparison",
    "run_stream_drill",
]
