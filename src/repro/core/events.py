"""Structured event records emitted by the Stay-Away runtime."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List


class EventKind(enum.Enum):
    """Everything noteworthy the runtime does or observes."""

    VIOLATION = "violation"          # sensitive app reported a QoS violation
    PREDICTED_VIOLATION = "predicted-violation"  # majority vote tripped
    THROTTLE = "throttle"            # batch containers paused (SIGSTOP)
    RESUME = "resume"                # batch containers resumed (SIGCONT)
    PROBE_RESUME = "probe-resume"    # anti-starvation random resume
    BETA_INCREMENT = "beta-increment"  # premature resume detected
    REFIT = "refit"                  # full SMACOF refit of the map
    NEW_STATE = "new-state"          # new representative added to the map
    SENSOR_REJECT = "sensor-reject"  # guard refused a measurement vector
    DEGRADED_ENTER = "degraded-enter"  # fell back to reactive-only policy
    DEGRADED_EXIT = "degraded-exit"  # resynchronized into predictive mode
    RECONCILE = "reconcile"          # desired/actual pause-set drift repaired
    ACTION_FAILED = "action-failed"  # pause/resume did not take effect
    ACTION_ESCALATION = "action-escalation"  # retries exhausted on a target
    FIREWALL_CATCH = "firewall-catch"  # stage exception contained, period degraded
    MODEL_QUARANTINE = "model-quarantine"  # poisoned states removed from the map
    MODEL_RESET = "model-reset"      # poisoned mode models (or the whole map) cleared


@dataclass(frozen=True)
class Event:
    """One timestamped runtime event.

    Attributes
    ----------
    tick:
        Tick at which the event happened.
    kind:
        Event category.
    detail:
        Free-form payload (state indices, beta values, ...).
    """

    tick: int
    kind: EventKind
    detail: Dict[str, Any] = field(default_factory=dict)


class EventLog:
    """Append-only log with simple filters."""

    def __init__(self) -> None:
        self._events: List[Event] = []

    def record(self, tick: int, kind: EventKind, **detail: Any) -> Event:
        """Append and return a new event."""
        event = Event(tick=tick, kind=kind, detail=dict(detail))
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    @property
    def events(self) -> List[Event]:
        """All events in insertion order (shared list; do not mutate)."""
        return self._events

    def of_kind(self, kind: EventKind) -> List[Event]:
        """Events of one kind, in order."""
        return [event for event in self._events if event.kind is kind]

    def count(self, kind: EventKind) -> int:
        """How many events of a kind were recorded."""
        return sum(1 for event in self._events if event.kind is kind)
