"""Pluggable, acknowledged actuation.

In-process, a pause is a Python call that cannot be lost. A service's
pause is a message to a remote agent that absolutely can be: delivered
but unacknowledged, dropped outright, or executed twice. This module
makes every pause/resume an :class:`ActuatorCommand` with an explicit
acknowledgement contract:

* the backend's :meth:`Actuator.deliver` returns ``True`` (delivered
  and acked), ``None`` (delivered, ack pending/lost) or ``False``
  (delivery failed outright);
* the :class:`AckTracker` waits ``ACK_TIMEOUT`` ticks for an ack, then
  redelivers with doubling backoff up to ``MAX_RETRIES`` times;
* a command that exhausts its retries is **dead-lettered**: recorded
  in :attr:`AckTracker.dead_letters`, counted, and surfaced through
  the controller's event log as an ``ACTION_ESCALATION`` — the same
  operator-attention path :mod:`repro.core.action` uses for repair
  budgets, so one pager covers both.

Backends: :class:`SimHostActuator` applies commands to a live
simulator host (the drills' closed loop), :class:`RecordingActuator`
just logs them (dry runs, replay), :class:`NullActuator` acks
everything instantly (unit tests / pure-decision replay).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.telemetry.registry import MetricRegistry

#: Ticks to wait for an ack before redelivering.
ACK_TIMEOUT = 2
#: Redelivery budget: attempt ``MAX_RETRIES + 1`` failing dead-letters
#: the command.
MAX_RETRIES = 3
#: Base backoff in ticks; retry *n* waits ``ACK_BACKOFF * 2**(n-1)``
#: beyond the ack window.
ACK_BACKOFF = 1

class CommandStatus(enum.Enum):
    """Lifecycle of one actuation command."""

    PENDING = "pending"
    ACKED = "acked"
    DEAD_LETTERED = "dead-lettered"


@dataclass
class ActuatorCommand:
    """One pause/resume order and its acknowledgement bookkeeping."""

    command_id: int
    verb: str  # "pause" | "resume"
    container: str
    issued_tick: int
    status: CommandStatus = CommandStatus.PENDING
    attempts: int = 0
    next_attempt_tick: int = 0
    resolved_tick: Optional[int] = None

    @property
    def pending(self) -> bool:
        return self.status is CommandStatus.PENDING


class Actuator:
    """Backend interface: deliver one command attempt.

    Returns ``True`` when the command landed *and* was acknowledged,
    ``None`` when it was sent but no ack arrived (the tracker will
    retry), ``False`` when delivery failed outright (also retried —
    from the tracker's perspective an unacked send and a failed send
    differ only in the telemetry label).
    """

    name = "actuator"

    def deliver(self, command: ActuatorCommand, tick: int) -> Optional[bool]:
        raise NotImplementedError


class NullActuator(Actuator):
    """Acks everything instantly; actions affect nothing."""

    name = "null"

    def deliver(self, command: ActuatorCommand, tick: int) -> Optional[bool]:
        return True


class RecordedAction(NamedTuple):
    """One delivered command, as the recording backend logs it."""

    tick: int
    verb: str
    container: str
    command_id: int
    attempt: int


class RecordingActuator(Actuator):
    """Logs every delivery and acks it; the dry-run backend."""

    name = "recording"

    def __init__(self) -> None:
        self.actions: List[RecordedAction] = []

    def deliver(self, command: ActuatorCommand, tick: int) -> Optional[bool]:
        self.actions.append(
            RecordedAction(
                tick=tick,
                verb=command.verb,
                container=command.container,
                command_id=command.command_id,
                attempt=command.attempts,
            )
        )
        return True


class SimHostActuator(Actuator):
    """Applies commands to a live simulator host through its port.

    The ``host`` is anything with the port's ``pause(name)`` /
    ``resume(name)`` — in practice a :class:`~repro.sim.host.Host`. The
    port's answer is the ack: a signal that did not take effect is a failed delivery,
    retried by the tracker. An optional ``ack_filter(command, tick) ->
    bool`` decides whether the ack makes it back (the
    :class:`~repro.sim.faults.ActuatorAckDropper` chaos hook): when it
    returns False the action still *happened* on the host but the
    tracker sees no ack — the double-delivery case the idempotent
    pause/resume semantics absorb.
    """

    name = "sim"

    def __init__(
        self,
        host,
        ack_filter: Optional[Callable[[ActuatorCommand, int], bool]] = None,
    ) -> None:
        self.host = host
        self.ack_filter = ack_filter

    def deliver(self, command: ActuatorCommand, tick: int) -> Optional[bool]:
        signal = self.host.pause if command.verb == "pause" else self.host.resume
        if not signal(command.container):
            return False
        if self.ack_filter is not None and not self.ack_filter(command, tick):
            return None  # action landed; ack lost in transit
        return True


class AckTracker:
    """Drives commands through deliver -> ack -> (retry) -> dead-letter.

    Parameters
    ----------
    actuator:
        The delivery backend.
    registry:
        Registry for the ``actuator.*`` counters.
    on_dead_letter:
        Callback ``(command, tick)`` fired once per dead-lettered
        command — the service uses it to raise the
        ``ACTION_ESCALATION`` event.
    """

    def __init__(
        self,
        actuator: Actuator,
        registry: Optional[MetricRegistry] = None,
        on_dead_letter: Optional[Callable[[ActuatorCommand, int], None]] = None,
    ) -> None:
        self.actuator = actuator
        self.on_dead_letter = on_dead_letter
        self.metrics = registry if registry is not None else MetricRegistry()
        self._c_submitted = self.metrics.counter(
            "actuator.submitted", help="pause/resume commands submitted"
        )
        self._c_acks = self.metrics.counter(
            "actuator.acks", help="commands acknowledged by the backend"
        )
        self._c_retries = self.metrics.counter(
            "actuator.retries", help="redelivery attempts after missing acks"
        )
        self._c_dead = self.metrics.counter(
            "actuator.dead_lettered", help="commands whose retry budget ran out"
        )
        self._next_id = 0
        self.dead_letters: List[ActuatorCommand] = []
        # The in-flight command of each container, in issue order
        # (``submit`` guarantees at most one per container).
        self._pending: Dict[str, ActuatorCommand] = {}

    # -- introspection ----------------------------------------------------
    def pending(self) -> List[ActuatorCommand]:
        """Commands still awaiting an ack."""
        return list(self._pending.values())

    def pending_containers(self) -> Dict[str, str]:
        """``{container: verb}`` of the newest in-flight command each."""
        return {name: command.verb for name, command in self._pending.items()}

    def summary(self) -> dict:
        return {
            "submitted": int(self._c_submitted.value),
            "acks": int(self._c_acks.value),
            "retries": int(self._c_retries.value),
            "dead_lettered": int(self._c_dead.value),
            "pending": len(self._pending),
        }

    # -- lifecycle ---------------------------------------------------------
    def submit(self, tick: int, verb: str, container: str) -> ActuatorCommand:
        """Issue a command and attempt first delivery immediately.

        A newer command for the same container supersedes any pending
        older one (a resume overtaking an unacked pause must win — the
        controller's latest intent is the only one worth retrying).
        """
        if verb not in ("pause", "resume"):
            raise ValueError(f"unknown actuator verb: {verb!r}")
        self.withdraw(container, tick)
        command = ActuatorCommand(
            command_id=self._next_id,
            verb=verb,
            container=container,
            issued_tick=tick,
        )
        self._next_id += 1
        self._pending[container] = command
        self._c_submitted.inc()
        self._attempt(command, tick)
        return command

    def withdraw(self, container: str, tick: int) -> None:
        """Stop retrying ``container``'s in-flight command, if any: a
        newer command supersedes it, and so does the container leaving
        the host (no host could deliver it, and its dead letter would
        page about a container that is no longer there)."""
        old = self._pending.pop(container, None)
        if old is not None:
            old.status = CommandStatus.ACKED  # superseded; stop retrying
            old.resolved_tick = tick

    def _attempt(self, command: ActuatorCommand, tick: int) -> None:
        command.attempts += 1
        acked = self.actuator.deliver(command, tick)
        if acked is True:
            command.status = CommandStatus.ACKED
            command.resolved_tick = tick
            del self._pending[command.container]
            self._c_acks.inc()
            return
        # Unacked (None) or failed (False): schedule the next attempt
        # after the ack window plus exponential backoff.
        wait = ACK_TIMEOUT + ACK_BACKOFF * (2 ** (command.attempts - 1))
        command.next_attempt_tick = tick + wait

    def step(self, tick: int) -> None:
        """Retry overdue commands; dead-letter exhausted ones."""
        for command in self.pending():
            if tick < command.next_attempt_tick:
                continue
            if command.attempts > MAX_RETRIES:
                self._dead_letter(command, tick)
                continue
            self._c_retries.inc()
            self._attempt(command, tick)
            if command.pending and command.attempts > MAX_RETRIES:
                # Last permitted attempt also went unacked; don't keep
                # the command in limbo for another full window.
                command.next_attempt_tick = tick + ACK_TIMEOUT

    def drain(self, tick: int) -> None:
        """Resolve every in-flight command before shutdown.

        Pending commands get one final delivery attempt; anything
        still unacked is dead-lettered so the service stops with zero
        unreconciled commands — every order is either acked or on the
        dead-letter log.
        """
        for command in self.pending():
            self._c_retries.inc()
            self._attempt(command, tick)
            if command.pending:
                self._dead_letter(command, tick)

    def _dead_letter(self, command: ActuatorCommand, tick: int) -> None:
        command.status = CommandStatus.DEAD_LETTERED
        command.resolved_tick = tick
        del self._pending[command.container]
        self.dead_letters.append(command)
        self._c_dead.inc()
        if self.on_dead_letter is not None:
            self.on_dead_letter(command, tick)
