"""Degraded-mode state machine: survive silent sensors and QoS channels.

The paper assumes a cooperative host: the monitoring agent ticks every
period and the sensitive application reports QoS whenever asked. On a
hostile host either channel can go silent — the agent crashes, samples
are dropped, the application wedges. Predictions made over a stale map
with unlabeled states are worse than no predictions, so the controller
runs a small health state machine:

* **PREDICTIVE** — both channels fresh; the full Mapping → Prediction →
  Action mechanism runs.
* **DEGRADED** — a channel has been silent past its deadline. The
  controller stops trusting the predictor (no preemptive throttles) and
  falls back to the conservative reactive policy: throttle only on
  *observed* violations, optionally pausing the batch preemptively on
  entry. Learning continues on whatever healthy data still arrives.

Re-entry to PREDICTIVE requires ``RESYNC_PERIODS`` consecutive healthy
periods — a single good sample after an outage is not resynchronization.
Every transition is recorded in the :class:`~repro.core.events.EventLog`
(``DEGRADED_ENTER`` / ``DEGRADED_EXIT``); entries and degraded periods
are counted in the controller's registry (``health.*``).
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.core.events import EventKind, EventLog
from repro.telemetry.registry import MetricRegistry

#: Ticks of monitoring silence (no usable measurement, or no controller
#: invocation at all) before degrading.
MONITORING_DEADLINE = 10
#: Ticks of QoS silence before degrading. Silence only counts once the
#: channel has produced a report: an application that has not started
#: yet is "learning", not "down".
QOS_DEADLINE = 10
#: Consecutive healthy periods required to leave DEGRADED.
RESYNC_PERIODS = 3

class ControllerHealth(enum.Enum):
    """Health state of the controller's input channels."""

    PREDICTIVE = "predictive"
    DEGRADED = "degraded"


class DegradedModeMachine:
    """Tracks channel freshness and decides the controller's health state.

    Parameters
    ----------
    events:
        Event log receiving transition records.
    registry:
        The :class:`~repro.telemetry.registry.MetricRegistry` holding
        the ``health.degraded_entries`` / ``health.degraded_periods``
        counters :meth:`summary` reads; the controller passes its own, a
        private registry by default.
    """

    def __init__(
        self, events: EventLog, registry: Optional[MetricRegistry] = None
    ) -> None:
        self.events = events
        self.state = ControllerHealth.PREDICTIVE
        metrics = registry if registry is not None else MetricRegistry()
        self._c_entries = metrics.counter(
            "health.degraded_entries", help="PREDICTIVE -> DEGRADED transitions"
        )
        self._c_periods = metrics.counter(
            "health.degraded_periods", help="periods spent DEGRADED"
        )
        self._last_update_tick: Optional[int] = None
        self._last_good_monitoring_tick: Optional[int] = None
        self._last_qos_tick: Optional[int] = None
        self._healthy_streak = 0

    # -- channel freshness ---------------------------------------------------
    def _silent_reasons(self, tick: int, previous_update: Optional[int]) -> List[str]:
        """Silence diagnoses for this period.

        Called *after* this period's freshness was credited, so a good
        sample arriving right now immediately clears its channel — the
        first healthy period after an outage counts toward resync.
        ``previous_update`` is the update tick before this one: a large
        gap there means the controller itself was not invoked (the
        monitoring middleware went dark wholesale).
        """
        reasons: List[str] = []
        if (
            previous_update is not None
            and tick - previous_update > MONITORING_DEADLINE
        ):
            reasons.append("monitoring-gap")
        if (
            self._last_good_monitoring_tick is not None
            and tick - self._last_good_monitoring_tick > MONITORING_DEADLINE
        ):
            reasons.append("monitoring-silent")
        if (
            self._last_qos_tick is not None
            and tick - self._last_qos_tick > QOS_DEADLINE
        ):
            reasons.append("qos-silent")
        return reasons

    # -- the per-period entry point -------------------------------------------
    def update(self, tick: int, monitoring_ok: bool, qos_fresh: bool) -> ControllerHealth:
        """Feed one period's channel health; returns the new state.

        Parameters
        ----------
        monitoring_ok:
            A usable (accepted or imputed-within-budget) measurement
            vector exists this period.
        qos_fresh:
            The QoS channel produced at least one report since the
            previous period.
        """
        previous_update = self._last_update_tick
        self._last_update_tick = tick
        if monitoring_ok:
            self._last_good_monitoring_tick = tick
        if qos_fresh:
            self._last_qos_tick = tick
        reasons = self._silent_reasons(tick, previous_update)

        healthy_now = monitoring_ok and qos_fresh and not reasons

        if self.state is ControllerHealth.PREDICTIVE:
            # Instant monitoring trouble (unusable sample) or a deadline
            # breach degrades; mere QoS staleness within its deadline
            # does not.
            if reasons or not monitoring_ok:
                self._enter_degraded(tick, reasons or ["monitoring-unusable"])
        else:
            self._c_periods.inc()
            if healthy_now:
                self._healthy_streak += 1
                if self._healthy_streak >= RESYNC_PERIODS:
                    self._exit_degraded(tick)
            else:
                self._healthy_streak = 0
        return self.state

    def force_degraded(self, tick: int, reason: str) -> None:
        """Drop into DEGRADED immediately for a controller-internal fault.

        Used by :class:`~repro.service.controller_service.ControllerService`
        when the record stream stalls: no tick has closed, so no period
        has run to notice the silence, and the controller falls back to
        the reactive-only policy. The normal resync rule
        applies on the way out — ``RESYNC_PERIODS`` consecutive healthy
        periods re-enter PREDICTIVE.
        """
        if self.state is ControllerHealth.DEGRADED:
            return
        self._enter_degraded(tick, [reason])

    def _enter_degraded(self, tick: int, reasons: List[str]) -> None:
        self.state = ControllerHealth.DEGRADED
        self._c_entries.inc()
        self._c_periods.inc()
        self._healthy_streak = 0
        self.events.record(tick, EventKind.DEGRADED_ENTER, reasons=list(reasons))

    def _exit_degraded(self, tick: int) -> None:
        self.state = ControllerHealth.PREDICTIVE
        self._healthy_streak = 0
        self.events.record(
            tick, EventKind.DEGRADED_EXIT, resync_periods=RESYNC_PERIODS
        )

    # -- introspection -----------------------------------------------------
    @property
    def predictive(self) -> bool:
        """True while predictions may be acted upon."""
        return self.state is ControllerHealth.PREDICTIVE

    def summary(self) -> dict:
        """The state and the ``health.*`` counters."""
        return {
            "state": self.state.value,
            "degraded_entries": int(self._c_entries.value),
            "degraded_periods": int(self._c_periods.value),
        }
