"""Per-stage circuit breakers for the control loop.

The exception firewall in :class:`~repro.core.controller.StayAway`
keeps a single stage failure from crashing the run, but a stage that
fails *every* period (a wedged mapping pipeline fed garbage, a predictor
whose model was poisoned) should stop being invoked at all: each failed
attempt costs a period of protection and can corrupt more state. Each
stage therefore carries a :class:`CircuitBreaker` with the classic three
states:

* **CLOSED** — stage runs normally; failures are counted against an
  error budget over a sliding window of periods.
* **OPEN** — budget exhausted. The stage is skipped entirely and the
  controller degrades (reactive-only policy for map/predict, fail-safe
  pause-and-hold for act) until a cooldown elapses.
* **HALF_OPEN** — cooldown over; the stage is probed. A run of
  consecutive successful probes closes the breaker, a single probe
  failure re-opens it for a fresh cooldown.

Every transition is recorded in the :class:`~repro.core.events.EventLog`
(``BREAKER_TRIP`` / ``BREAKER_PROBE`` / ``BREAKER_RESET``) and counted
in the telemetry registry, so chaos experiments can measure trip counts
and recovery times rather than assert them.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.events import EventKind, EventLog

#: Stage failures within ``WINDOW_TICKS`` that trip a breaker OPEN.
ERROR_BUDGET = 3
#: Sliding error-budget window, in ticks (one period each).
WINDOW_TICKS = 20
#: Ticks an OPEN breaker holds before letting probes through.
COOLDOWN_TICKS = 15
#: Consecutive successful probes that close a HALF_OPEN breaker.
PROBES = 2


class BreakerState(enum.Enum):
    """The classic circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Error-budget breaker for one controller stage.

    Parameters
    ----------
    stage:
        Stage name ("map", "predict", "act", ...), used in events and
        metric labels.
    events:
        Event log receiving trip/probe/reset records.
    registry:
        Optional :class:`~repro.telemetry.MetricRegistry` for the
        ``breaker.trips`` / ``breaker.resets`` counters (labelled by
        stage).
    """

    def __init__(self, stage: str, events: EventLog, registry=None) -> None:
        self.stage = stage
        self.events = events
        self.state = BreakerState.CLOSED
        self.trip_count = 0
        self.reset_count = 0
        self._failures: Deque[int] = deque()
        self._open_until: Optional[int] = None
        self._probe_successes = 0
        self._last_trip_tick: Optional[int] = None
        #: ``(trip_tick, reset_tick)`` pairs of completed outages.
        self.recoveries: List[Tuple[int, int]] = []
        self._c_trips = None
        self._c_resets = None
        if registry is not None:
            labels = {"stage": stage}
            self._c_trips = registry.counter(
                "breaker.trips", help="circuit-breaker trips", labels=labels
            )
            self._c_resets = registry.counter(
                "breaker.resets", help="circuit-breaker resets", labels=labels
            )

    # -- gating ------------------------------------------------------------
    def allows(self, tick: int) -> bool:
        """Whether the stage may run this period.

        An OPEN breaker whose cooldown elapsed transitions to HALF_OPEN
        here (recording a ``BREAKER_PROBE`` event) and lets the probe
        through.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if self._open_until is not None and tick >= self._open_until:
                self.state = BreakerState.HALF_OPEN
                self._probe_successes = 0
                self.events.record(tick, EventKind.BREAKER_PROBE, stage=self.stage)
                return True
            return False
        return True  # HALF_OPEN: probes run

    # -- outcome feedback --------------------------------------------------
    def record_success(self, tick: int) -> None:
        """Feed a successful stage execution."""
        if self.state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= PROBES:
                self._reset(tick)
        elif self.state is BreakerState.CLOSED:
            self._prune(tick)

    def record_failure(self, tick: int) -> bool:
        """Feed a stage failure; returns True when the breaker tripped now."""
        if self.state is BreakerState.HALF_OPEN:
            # A failed probe re-opens immediately for a fresh cooldown.
            self._trip(tick, probe_failure=True)
            return True
        self._failures.append(tick)
        self._prune(tick)
        if self.state is BreakerState.CLOSED and len(self._failures) >= ERROR_BUDGET:
            self._trip(tick)
            return True
        return False

    # -- internals ---------------------------------------------------------
    def _prune(self, tick: int) -> None:
        while self._failures and tick - self._failures[0] > WINDOW_TICKS:
            self._failures.popleft()

    def _trip(self, tick: int, probe_failure: bool = False) -> None:
        self.state = BreakerState.OPEN
        self.trip_count += 1
        self._open_until = tick + COOLDOWN_TICKS
        self._probe_successes = 0
        if self._last_trip_tick is None:
            self._last_trip_tick = tick
        if self._c_trips is not None:
            self._c_trips.inc()
        self.events.record(
            tick,
            EventKind.BREAKER_TRIP,
            stage=self.stage,
            failures=len(self._failures),
            probe_failure=probe_failure,
        )
        self._failures.clear()

    def _reset(self, tick: int) -> None:
        self.state = BreakerState.CLOSED
        self.reset_count += 1
        self._open_until = None
        self._probe_successes = 0
        self._failures.clear()
        if self._last_trip_tick is not None:
            self.recoveries.append((self._last_trip_tick, tick))
            self._last_trip_tick = None
        if self._c_resets is not None:
            self._c_resets.inc()
        self.events.record(tick, EventKind.BREAKER_RESET, stage=self.stage)

    # -- introspection -----------------------------------------------------
    @property
    def open(self) -> bool:
        """True while the stage is fully blocked (no probes yet)."""
        return self.state is BreakerState.OPEN

    def recovery_times(self) -> List[int]:
        """Ticks from each trip to the reset that ended its outage."""
        return [reset - trip for trip, reset in self.recoveries]

    def summary(self) -> dict:
        """Counters for reports and tests."""
        times = self.recovery_times()
        return {
            "state": self.state.value,
            "trips": self.trip_count,
            "resets": self.reset_count,
            "mean_recovery_ticks": (sum(times) / len(times)) if times else 0.0,
        }


class BreakerBank:
    """One :class:`CircuitBreaker` per controller stage.

    Parameters
    ----------
    events / registry:
        Shared event log and telemetry registry.
    stages:
        Stage names to guard.
    """

    STAGES: Tuple[str, ...] = ("guard", "map", "predict", "act")

    def __init__(
        self, events: EventLog, registry=None, stages: Optional[Tuple[str, ...]] = None
    ) -> None:
        self.breakers: Dict[str, CircuitBreaker] = {
            stage: CircuitBreaker(stage, events, registry=registry)
            for stage in (stages if stages is not None else self.STAGES)
        }

    def get(self, stage: str) -> CircuitBreaker:
        """The breaker guarding one stage."""
        return self.breakers[stage]

    @property
    def total_trips(self) -> int:
        """Trips across all stages."""
        return sum(breaker.trip_count for breaker in self.breakers.values())

    def summary(self) -> dict:
        """Per-stage breaker summaries."""
        return {stage: breaker.summary() for stage, breaker in self.breakers.items()}


__all__ = ["BreakerBank", "BreakerState", "CircuitBreaker"]
