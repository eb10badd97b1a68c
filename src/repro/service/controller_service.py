"""The controller as a long-running service over a metric stream.

:class:`ControllerService` owns one
:class:`~repro.core.controller.StayAway` controller and runs it
against assembled stream state instead of live simulator snapshots:

* **Lifecycle** — ``start()`` → ``pump()`` (one service cycle: poll,
  assemble, step the controller over every newly closed tick) →
  ``drain()`` (force-close the buffer, resolve every in-flight
  actuator command) → ``stop()``. :meth:`run` loops pump-until-
  exhausted then drains, for replay.
* **Reconnect** — a :class:`~repro.service.stream.StreamError` from
  the source starts capped exponential backoff (base
  ``RETRY_BACKOFF``, cap ``RETRY_CAP``) with seeded uniform jitter
  (``RETRY_JITTER``) before
  :meth:`~repro.service.stream.StreamSource.reconnect` + the next
  poll; the service keeps stepping closed ticks it already holds
  while the source is down.
* **Stall degradation** — when the stream's newest data tick stops
  advancing for ``STALL_DEADLINE`` service cycles, the
  controller's :class:`~repro.core.resilience.DegradedModeMachine` is
  forced DEGRADED (reason ``stream-stall``): no fresh world, no
  trusted predictions. The machine's normal resync rule recovers once
  data flows again.
* **Actuation** — the controller's pause/resume calls travel through
  the :class:`~repro.service.actuator.AckTracker`, and the
  :class:`~repro.service.views.HostView` reads a container with a
  command in flight as that command intends; a
  dead-lettered command is recorded as an ``ACTION_ESCALATION`` event
  in the controller's own log — one escalation stream for both repair
  budgets and actuation failures.
"""

from __future__ import annotations

import enum
from typing import List, Optional

import numpy as np

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.events import EventKind
from repro.telemetry import Telemetry

from repro.service.actuator import Actuator, ActuatorCommand, AckTracker, NullActuator
from repro.service.assembler import ClosedTick, StreamAssembler
from repro.service.stream import StreamError, StreamSource
from repro.service.views import HostView, StreamQosChannel

#: Event kinds that constitute the pause/resume decision sequence the
#: replay-determinism gate compares.
DECISION_KINDS = (EventKind.THROTTLE, EventKind.RESUME, EventKind.PROBE_RESUME)

#: Reconnect backoff after a :class:`StreamError`, in service cycles: the
#: base doubles per consecutive failure up to the cap, and each delay is
#: jittered by up to ±``RETRY_JITTER`` (drawn from the service's seeded
#: RNG, so runs stay reproducible) to decorrelate reconnect storms.
RETRY_BACKOFF = 1
RETRY_CAP = 16
RETRY_JITTER = 0.2

#: Pump cycles without the stream's newest data tick advancing before
#: the controller is forced DEGRADED (reason ``stream-stall``).
STALL_DEADLINE = 10


class ServiceState(enum.Enum):
    """Service lifecycle."""

    CREATED = "created"
    RUNNING = "running"
    DRAINING = "draining"
    STOPPED = "stopped"


class ControllerService:
    """Run a Stay-Away controller against a metric stream.

    Parameters
    ----------
    source:
        Wire-record source (replay, scrape, queue).
    actuator:
        Delivery backend for pause/resume commands; default
        :class:`~repro.service.actuator.NullActuator` (decisions only —
        the replay case).
    config:
        Controller + service tunables (``stream_watermark`` lives here
        too).
    assembler:
        Override the assembly policy; default a
        :class:`~repro.service.assembler.StreamAssembler` with
        ``config.stream_watermark``. Pass a
        :class:`~repro.service.assembler.PassthroughAssembler` for the
        ablation arm.
    """

    def __init__(
        self,
        source: StreamSource,
        actuator: Optional[Actuator] = None,
        config: Optional[StayAwayConfig] = None,
        assembler=None,
    ) -> None:
        self.config = config if config is not None else StayAwayConfig()
        self.source = source
        self.telemetry = Telemetry(enabled=self.config.telemetry)
        #: Opaque identity the view puts on the protected container's row.
        self.sensitive_app = object()
        self.qos_channel = StreamQosChannel()
        self.controller = StayAway(
            self.sensitive_app,
            config=self.config,
            violation_detector=self.qos_channel,
            telemetry=self.telemetry,
        )
        self.assembler = (
            assembler
            if assembler is not None
            else StreamAssembler(
                watermark=self.config.stream_watermark,
                registry=self.telemetry.registry,
            )
        )
        backend = actuator if actuator is not None else NullActuator()
        self.tracker = AckTracker(
            backend,
            registry=self.telemetry.registry,
            on_dead_letter=self._on_dead_letter,
        )
        self.host: Optional[HostView] = None
        self.state = ServiceState.CREATED
        self._rng = np.random.default_rng(self.config.seed + 101)
        self._cycle = 0
        self._retry_failures = 0
        self._retry_at: Optional[int] = None
        self._last_max_seen: Optional[int] = None
        self._stalled_cycles = 0
        self._stall_active = False
        self._c_reconnects = self.telemetry.counter(
            "stream.reconnects", help="source reconnect attempts after errors"
        )
        self._c_stalls = self.telemetry.counter(
            "stream.stall_degrades", help="stall deadlines that forced DEGRADED"
        )
        self._c_ticks = self.telemetry.counter(
            "stream.ticks_processed", help="closed ticks stepped through the controller"
        )

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Transition CREATED -> RUNNING."""
        if self.state is not ServiceState.CREATED:
            raise RuntimeError(f"cannot start from {self.state.value}")
        self.state = ServiceState.RUNNING

    def pump(self) -> int:
        """One service cycle; returns the number of ticks stepped."""
        if self.state is not ServiceState.RUNNING:
            raise RuntimeError(f"cannot pump in state {self.state.value}")
        self._cycle += 1
        self._poll_source()
        stepped = self._step_closed(self.assembler.due())
        self._check_stall()
        return stepped

    def drain(self) -> int:
        """Force-close buffered ticks and resolve in-flight commands.

        Transitions RUNNING -> DRAINING -> STOPPED; returns the number
        of ticks stepped during the drain. After this every actuator
        command is acked or dead-lettered — nothing is left in limbo.
        """
        if self.state is not ServiceState.RUNNING:
            raise RuntimeError(f"cannot drain from state {self.state.value}")
        self.state = ServiceState.DRAINING
        stepped = self._step_closed(self.assembler.due(force=True))
        final_tick = (
            self.assembler.last_closed
            if self.assembler.last_closed is not None
            else 0
        )
        self.tracker.drain(final_tick)
        self.state = ServiceState.STOPPED
        return stepped

    def stop(self) -> None:
        """Hard stop without draining (buffered ticks are discarded)."""
        self.state = ServiceState.STOPPED

    def run(self, max_cycles: int = 1_000_000) -> int:
        """start -> pump until the source is exhausted -> drain.

        The replay entry point; returns total ticks stepped.
        """
        if self.state is ServiceState.CREATED:
            self.start()
        total = 0
        cycles = 0
        while not self.source.exhausted and cycles < max_cycles:
            total += self.pump()
            cycles += 1
        total += self.drain()
        return total

    # -- internals ---------------------------------------------------------
    def _poll_source(self) -> None:
        if self._retry_at is not None:
            if self._cycle < self._retry_at:
                return
            self.source.reconnect()
            self._c_reconnects.inc()
            self._retry_at = None
        try:
            records = self.source.poll()
        except StreamError:
            self._retry_failures += 1
            backoff = min(
                RETRY_CAP, RETRY_BACKOFF * 2 ** (self._retry_failures - 1)
            )
            jitter = 1.0 + RETRY_JITTER * (2.0 * float(self._rng.uniform()) - 1.0)
            self._retry_at = self._cycle + max(1, round(backoff * jitter))
            return
        self._retry_failures = 0
        for record in records:
            self.assembler.offer(record)
        if self.host is None and self.assembler.header is not None:
            self.host = HostView(
                self.assembler.header,
                sensitive_app=self.sensitive_app,
                submit=self._submit,
            )

    def _step_closed(self, closed: List[ClosedTick]) -> int:
        stepped = 0
        for tick in closed:
            if self.host is None:
                continue  # no header yet; nothing to describe the world with
            if tick.qos is not None:
                self.qos_channel.ingest(tick.tick, tick.qos[0], tick.qos[1])
            pinned = self.tracker.pending_containers()
            observation = self.host.apply(tick, pinned)
            if pinned:
                # A container that left the table took its command along.
                for name in pinned.keys() - observation.states().keys():
                    self.tracker.withdraw(name, tick.tick)
            self.controller.on_tick(observation, self.host)
            self.tracker.step(tick.tick)
            self._c_ticks.inc()
            stepped += 1
        return stepped

    def _check_stall(self) -> None:
        current = self.assembler.max_seen
        if self.source.exhausted:
            return  # a finished replay is not a stalled transport
        if current is not None and current == self._last_max_seen:
            self._stalled_cycles += 1
        else:
            self._stalled_cycles = 0
            self._stall_active = False
        self._last_max_seen = current
        if (
            self._stalled_cycles >= STALL_DEADLINE
            and not self._stall_active
        ):
            self._stall_active = True
            self._c_stalls.inc()
            if self.controller.health is not None:
                self.controller.health.force_degraded(
                    self.assembler.last_closed or 0, "stream-stall"
                )

    def _submit(self, verb: str, container: str) -> None:
        tick = (
            self.assembler.last_closed
            if self.assembler.last_closed is not None
            else 0
        )
        self.tracker.submit(tick, verb, container)

    def _on_dead_letter(self, command: ActuatorCommand, tick: int) -> None:
        self.controller.events.record(
            tick,
            EventKind.ACTION_ESCALATION,
            target=command.container,
            failures=command.attempts,
            source="actuator",
            verb=command.verb,
        )

    # -- results -----------------------------------------------------------
    def decision_sequence(self) -> List[dict]:
        """The pause/resume decision stream, replay-comparable.

        One entry per THROTTLE/RESUME/PROBE_RESUME event: ``{"tick",
        "kind", "targets"}`` — the exact sequence the determinism gate
        diffs against the in-process run.
        """
        return decision_sequence(self.controller)

    def summary(self) -> dict:
        """Controller summary extended with the stream/actuator block."""
        summary = self.controller.summary()
        summary["telemetry"]["stream"] = {
            **self.assembler.summary(),
            "reconnects": int(self._c_reconnects.value),
            "stall_degrades": int(self._c_stalls.value),
            "ticks_processed": int(self._c_ticks.value),
            "actuator": self.tracker.summary(),
        }
        summary["service_state"] = self.state.value
        return summary


def decision_sequence(controller: StayAway) -> List[dict]:
    """Extract the pause/resume decision sequence from any controller.

    Works for in-process controllers too, which is how the recorded
    reference sequence is produced for the replay-determinism gate.
    """
    sequence: List[dict] = []
    for event in controller.events:
        if event.kind in DECISION_KINDS:
            sequence.append(
                {
                    "tick": event.tick,
                    "kind": event.kind.value,
                    "targets": sorted(event.detail.get("targets", [])),
                }
            )
    return sequence
