"""Unit tests for the degraded-mode health state machine."""

from repro.core.events import EventKind, EventLog
from repro.core.resilience import (
    MONITORING_DEADLINE,
    QOS_DEADLINE,
    RESYNC_PERIODS,
    ControllerHealth,
    DegradedModeMachine,
)


def machine():
    events = EventLog()
    return DegradedModeMachine(events), events


def degrade(m):
    """Predictive at 0, an unusable sample at 5 degrades; returns 5."""
    m.update(0, monitoring_ok=True, qos_fresh=True)
    m.update(5, monitoring_ok=False, qos_fresh=True)
    assert not m.predictive
    return 5


class TestHealthyOperation:
    def test_starts_predictive(self):
        m, _ = machine()
        assert m.predictive
        assert m.state is ControllerHealth.PREDICTIVE

    def test_stays_predictive_on_healthy_updates(self):
        m, events = machine()
        for tick in range(0, 100, 5):
            assert m.update(tick, monitoring_ok=True, qos_fresh=True) is (
                ControllerHealth.PREDICTIVE
            )
        assert m.summary()["degraded_entries"] == 0
        assert events.of_kind(EventKind.DEGRADED_ENTER) == []

    def test_never_reported_qos_is_learning_not_silence(self):
        """An app that has not produced a single QoS report yet must not
        trip the silence deadline."""
        m, _ = machine()
        for tick in range(0, 100, 5):
            m.update(tick, monitoring_ok=True, qos_fresh=False)
        assert m.predictive


class TestDegradation:
    def test_unusable_monitoring_degrades_immediately(self):
        m, events = machine()
        m.update(0, monitoring_ok=True, qos_fresh=True)
        m.update(5, monitoring_ok=False, qos_fresh=True)
        assert not m.predictive
        enters = events.of_kind(EventKind.DEGRADED_ENTER)
        assert len(enters) == 1
        assert enters[0].detail["reasons"] == ["monitoring-unusable"]

    def test_qos_silence_past_deadline_degrades(self):
        m, events = machine()
        m.update(0, monitoring_ok=True, qos_fresh=True)
        m.update(QOS_DEADLINE, monitoring_ok=True, qos_fresh=False)  # at the deadline
        assert m.predictive
        m.update(QOS_DEADLINE + 1, monitoring_ok=True, qos_fresh=False)  # past it
        assert not m.predictive
        assert events.of_kind(EventKind.DEGRADED_ENTER)[0].detail["reasons"] == [
            "qos-silent"
        ]

    def test_controller_invocation_gap_degrades(self):
        """The controller simply not being called (wholesale monitoring
        dropout) counts as monitoring silence."""
        m, events = machine()
        m.update(0, monitoring_ok=True, qos_fresh=True)
        m.update(MONITORING_DEADLINE + 1, monitoring_ok=True, qos_fresh=True)  # a gap
        assert not m.predictive
        reasons = events.of_kind(EventKind.DEGRADED_ENTER)[0].detail["reasons"]
        assert "monitoring-gap" in reasons


class TestResynchronization:
    def test_single_good_period_is_not_resync(self):
        m, _ = machine()
        tick = degrade(m)
        m.update(tick + 1, monitoring_ok=True, qos_fresh=True)
        assert not m.predictive

    def test_streak_of_healthy_periods_exits_degraded(self):
        m, events = machine()
        tick = degrade(m)
        for step in range(1, RESYNC_PERIODS):
            m.update(tick + step, monitoring_ok=True, qos_fresh=True)
            assert not m.predictive
        m.update(tick + RESYNC_PERIODS, monitoring_ok=True, qos_fresh=True)
        assert m.predictive
        assert len(events.of_kind(EventKind.DEGRADED_EXIT)) == 1

    def test_unhealthy_period_resets_streak(self):
        m, _ = machine()
        tick = degrade(m)
        for step in range(1, RESYNC_PERIODS):
            m.update(tick + step, monitoring_ok=True, qos_fresh=True)
        tick += RESYNC_PERIODS
        m.update(tick, monitoring_ok=False, qos_fresh=True)  # streak broken
        for step in range(1, RESYNC_PERIODS):
            m.update(tick + step, monitoring_ok=True, qos_fresh=True)
        assert not m.predictive

    def test_degraded_periods_counted(self):
        m, _ = machine()
        tick = degrade(m)
        m.update(tick + 1, monitoring_ok=False, qos_fresh=True)
        assert m.summary()["degraded_periods"] == 2
        assert m.summary()["state"] == "degraded"
