"""Unit tests for StayAwayConfig and the event log."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.core.config import StayAwayConfig
from repro.core.events import Event, EventKind, EventLog


class TestStayAwayConfig:
    def test_paper_defaults(self):
        config = StayAwayConfig()
        assert config.beta_initial == 0.01  # §3.3
        assert config.n_samples == 5        # §3.2.3
        assert config.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"period": 0},
            {"n_samples": 0},
            {"majority": 0.0},
            {"majority": 1.5},
            {"dedup_epsilon": -0.1},
            {"beta_initial": 0.0},
            {"beta_increment": -0.1},
            {"probe_probability": 1.5},
            {"refit_interval": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StayAwayConfig(**kwargs)

    def test_custom_values_accepted(self):
        config = StayAwayConfig(period=5, n_samples=9, majority=1.0)
        assert config.period == 5


REPO = Path(__file__).resolve().parents[2]

#: The whole configuration surface. Adding a knob means editing this
#: set — and having a caller that sets it (see the test below).
CONFIG_FIELDS = {
    "period", "n_samples", "majority", "min_steps_for_prediction",
    "dedup_epsilon", "refit_interval", "beta_initial", "beta_increment",
    "resume_grace", "starvation_patience", "probe_probability",
    "aggregate_batch", "enabled", "per_mode_models",
    "radius_law", "fixed_radius", "seed", "sensor_guard", "degraded_mode",
    "monitoring_deadline", "qos_deadline", "resync_periods",
    "reconcile_actions", "action_backoff_cap", "action_escalation_threshold",
    "telemetry", "fault_containment", "breaker_error_budget",
    "breaker_window", "breaker_cooldown", "model_watchdog",
    "snapshot_interval", "stream_watermark", "stream_stall_deadline",
}


class TestConfigSurface:
    def test_field_set_is_pinned(self):
        fields = {f.name for f in dataclasses.fields(StayAwayConfig)}
        assert fields == CONFIG_FIELDS

    def test_every_field_is_set_by_some_caller(self):
        """A knob nothing sets is a constant: it belongs beside its code.

        Counts a field as set when any call outside ``core/config.py``
        passes it by keyword (``StayAwayConfig(...)``,
        ``dataclasses.replace``, a ``**overrides`` helper) or any
        statement assigns it as an attribute.
        """
        unset = set(CONFIG_FIELDS)
        for root in ("src", "tests", "benchmarks", "examples"):
            for path in (REPO / root).rglob("*.py"):
                if path == REPO / "src" / "repro" / "core" / "config.py":
                    continue
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if isinstance(node, ast.keyword):
                        unset.discard(node.arg)
                    elif isinstance(node, ast.Attribute) and isinstance(
                        node.ctx, ast.Store
                    ):
                        unset.discard(node.attr)
        assert not unset, f"config fields no caller sets: {sorted(unset)}"


class TestEventLog:
    def test_record_and_iterate(self):
        log = EventLog()
        event = log.record(3, EventKind.THROTTLE, targets=["b"])
        assert isinstance(event, Event)
        assert len(log) == 1
        assert list(log)[0].detail == {"targets": ["b"]}

    def test_of_kind_and_count(self):
        log = EventLog()
        log.record(0, EventKind.THROTTLE)
        log.record(1, EventKind.RESUME)
        log.record(2, EventKind.THROTTLE)
        assert log.count(EventKind.THROTTLE) == 2
        assert [e.tick for e in log.of_kind(EventKind.THROTTLE)] == [0, 2]

    def test_detail_is_copied(self):
        log = EventLog()
        payload = {"a": 1}
        event = log.record(0, EventKind.NEW_STATE, **payload)
        payload["a"] = 2
        assert event.detail["a"] == 1
