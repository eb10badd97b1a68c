"""Unit tests for the telemetry layer (PR 2).

Covers the registry (get-or-create, label identity, type conflicts),
histograms, stages and their per-period rows against a fake clock, the
three export formats, and the Telemetry facade's enabled/disabled
behaviour.
"""

import json

import pytest

from repro.telemetry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    Telemetry,
    prometheus_name,
    registry_snapshot,
    render_key,
    to_prometheus_text,
    write_json_snapshot,
    write_trace_jsonl,
)
from repro.telemetry import runtime


class FakeClock:
    """Deterministic monotonic clock advancing only on demand."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_labels_distinguish_metrics(self):
        registry = MetricRegistry()
        plain = registry.counter("rejects")
        labeled = registry.counter("rejects", labels={"reason": "nan"})
        assert plain is not labeled
        # label order must not matter
        assert registry.counter(
            "multi", labels={"a": "1", "b": "2"}
        ) is registry.counter("multi", labels={"b": "2", "a": "1"})

    def test_type_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_get_does_not_create(self):
        registry = MetricRegistry()
        assert registry.get("missing") is None
        assert len(registry) == 0
        created = registry.counter("present")
        assert registry.get("present") is created

    def test_iteration_is_sorted(self):
        registry = MetricRegistry()
        registry.counter("zeta")
        registry.counter("alpha")
        registry.gauge("mid")
        assert [m.name for m in registry] == ["alpha", "mid", "zeta"]

    def test_counter_semantics(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_semantics(self):
        gauge = Gauge("g")
        gauge.set(4.0)
        gauge.inc()
        assert gauge.value == 5.0
        gauge.inc(-7.0)  # gauges may move down
        assert gauge.value == -2.0

    def test_render_key(self):
        assert render_key("plain", ()) == "plain"
        assert render_key("m", (("a", "1"), ("b", "2"))) == 'm{a="1",b="2"}'


class TestHistogram:
    def test_bucketing_and_summary(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        assert hist.bucket_counts == [1, 1, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(105.0)
        assert hist.min == 0.5
        assert hist.max == 100.0
        assert hist.last == 100.0
        assert hist.mean() == pytest.approx(26.25)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(26.25)

    def test_boundary_value_lands_in_its_bucket(self):
        # le semantics: an observation equal to a bound counts in it.
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(1.0)
        assert hist.bucket_counts == [1, 0, 0]

    def test_cumulative_buckets_end_with_inf(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(5.0)
        pairs = hist.cumulative_buckets()
        assert pairs == [(1.0, 1), (2.0, 1), (float("inf"), 2)]

    def test_empty_summary_is_zeroed(self):
        summary = Histogram("h").summary()
        assert summary["min"] == 0.0 and summary["max"] == 0.0

    def test_default_buckets_cover_stage_timings(self):
        assert DEFAULT_BUCKETS[0] == 1e-6
        assert DEFAULT_BUCKETS[-1] == 1.0

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))


# ---------------------------------------------------------------------------
# timers
# ---------------------------------------------------------------------------


class TestTimers:
    def test_stage_timer_observes_into_histogram(self):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock)
        for elapsed in (0.1, 0.3):
            with telemetry.stage("stage"):
                clock.advance(elapsed)
        hist = telemetry.registry.get("stage_seconds")
        assert hist.count == 2
        assert hist.sum == pytest.approx(0.4)
        assert hist.last == pytest.approx(0.3)

    def test_stage_opens_a_row(self):
        clock = FakeClock(start=2.0)
        telemetry = Telemetry(clock=clock)
        with telemetry.stage("map", tick=7):
            assert len(telemetry.rows) == 0  # appended when it closes
            clock.advance(0.5)
        assert list(telemetry.rows) == [{"tick": 7, "start": 2.0, "map": 0.5}]

    def test_stage_timer_not_reentrant(self):
        stage = Telemetry(clock=FakeClock()).stage("h")
        with stage:
            with pytest.raises(RuntimeError):
                stage.__enter__()

    def test_stage_timer_exit_without_enter_raises(self):
        with pytest.raises(RuntimeError, match="never entered"):
            Telemetry().stage("h").__exit__(None, None, None)

    def test_row_durations_sum_to_the_histograms(self):
        """Whole periods — stages nested in stages, one stage entered
        twice, a map stage that raises through its period, a period
        under an outer stage: per stage, the rows' durations add up to
        its histogram ``sum`` exactly (every duration is dyadic)."""
        clock = FakeClock()
        telemetry = Telemetry(clock=clock)

        def period(tick, fail=False):
            with telemetry.stage("controller.period", tick=tick):
                clock.advance(0.5)
                with telemetry.stage("controller.map"):
                    clock.advance(0.25)
                    with telemetry.stage("mapping.refit"):
                        with telemetry.stage("geometry.rebuild"):
                            clock.advance(2.0)
                    if fail:
                        raise RuntimeError("mapping blew up")
                with telemetry.stage("controller.predict"):
                    with telemetry.stage("geometry.rebuild"):
                        clock.advance(0.03125)
                    clock.advance(0.125)

        period(4)
        with pytest.raises(RuntimeError, match="blew up"):
            period(5, fail=True)
        with telemetry.stage("fleet.cell"):
            period(6)

        rows = list(telemetry.rows)
        assert [row["tick"] for row in rows] == [4, 5, None]
        assert rows[1]["controller.map"] == 2.25
        assert "controller.predict" not in rows[1]
        assert rows[0]["geometry.rebuild"] == 2.03125
        for stage, summary in telemetry.stage_summary().items():
            assert sum(row.get(stage, 0.0) for row in rows) == summary["sum"]


# ---------------------------------------------------------------------------
# trace rows
# ---------------------------------------------------------------------------


class TestRows:
    def test_nesting_from_call_order(self):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock)
        with telemetry.stage("period", tick=1):
            clock.advance(0.1)
            with telemetry.stage("map", tick=99):  # an inner tick is ignored
                clock.advance(0.2)
        (row,) = telemetry.rows
        assert row["tick"] == 1
        assert row["period"] == pytest.approx(0.3)
        assert row["map"] == pytest.approx(0.2)

    def test_a_stage_after_a_nest_is_a_root_again(self):
        telemetry = Telemetry(clock=FakeClock())
        with telemetry.stage("outer", tick=0):
            with telemetry.stage("inner"):
                pass
            with telemetry.stage("sibling"):
                pass
        with telemetry.stage("next", tick=1):
            pass
        assert [sorted(row) for row in telemetry.rows] == [
            ["inner", "outer", "sibling", "start", "tick"],
            ["next", "start", "tick"],
        ]

    def test_rows_keep_the_newest_trace_rows(self, monkeypatch):
        monkeypatch.setattr(runtime, "TRACE_ROWS", 2)
        telemetry = Telemetry(clock=FakeClock())
        for tick in range(5):
            with telemetry.stage("s", tick=tick):
                pass
        assert [row["tick"] for row in telemetry.rows] == [3, 4]
        assert telemetry.registry.get("s_seconds").count == 5


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


class TestExporters:
    def _populated_registry(self):
        registry = MetricRegistry()
        registry.counter("throttles", help="throttle actions").inc(3)
        registry.counter("rejects", labels={"reason": "nan"}).inc()
        registry.gauge("beta").set(0.75)
        registry.histogram("map_seconds", buckets=(0.1, 1.0)).observe(0.05)
        return registry

    def test_registry_snapshot_shape(self):
        snap = registry_snapshot(self._populated_registry())
        assert snap["counters"]["throttles"] == 3.0
        assert snap["counters"]['rejects{reason="nan"}'] == 1.0
        assert snap["gauges"]["beta"] == 0.75
        assert snap["histograms"]["map_seconds"]["count"] == 1

    def test_prometheus_text_format(self):
        text = to_prometheus_text(self._populated_registry())
        assert "# TYPE throttles_total counter" in text
        assert "throttles_total 3" in text
        assert 'rejects_total{reason="nan"} 1' in text
        assert "# TYPE beta gauge" in text
        assert "beta 0.75" in text
        assert 'map_seconds_bucket{le="0.1"} 1' in text
        assert 'map_seconds_bucket{le="+Inf"} 1' in text
        assert "map_seconds_sum 0.05" in text
        assert "map_seconds_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_name_sanitized(self):
        assert prometheus_name("controller.map") == "controller_map"
        assert prometheus_name("9lives") == "_9lives"

    def test_write_json_snapshot(self, tmp_path):
        path = tmp_path / "snap.json"
        write_json_snapshot(
            self._populated_registry(), str(path), extra={"policy": "stayaway"},
        )
        payload = json.loads(path.read_text())
        assert payload["policy"] == "stayaway"
        assert payload["metrics"]["gauges"]["beta"] == 0.75

    def test_write_trace_jsonl(self, tmp_path):
        rows = [
            {"tick": 1, "start": 0.0, "period": 0.5, "map": 0.25},
            {"tick": 2, "start": 0.5, "period": 0.125},
        ]
        path = tmp_path / "trace.jsonl"
        count = write_trace_jsonl(rows, str(path))
        lines = path.read_text().splitlines()
        assert count == len(lines) == 2
        assert [json.loads(line) for line in lines] == rows


# ---------------------------------------------------------------------------
# facade
# ---------------------------------------------------------------------------


class TestTelemetryFacade:
    def test_stage_times_into_histogram_and_row(self):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock)
        with telemetry.stage("controller.map", tick=5):
            clock.advance(0.01)
        summary = telemetry.stage_summary()
        assert summary["controller.map"]["count"] == 1
        assert summary["controller.map"]["sum"] == pytest.approx(0.01)
        (row,) = telemetry.rows
        assert row["tick"] == 5
        assert row["controller.map"] == summary["controller.map"]["sum"]

    def test_stage_timer_cached_per_name_with_fresh_attrs(self):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock)
        first = telemetry.stage("s", tick=1)
        with first:
            pass
        second = telemetry.stage("s", tick=2)
        assert second is first  # one timer per stage name
        with second:
            pass
        assert [row["tick"] for row in telemetry.rows] == [1, 2]

    def test_disabled_stage_is_null_context_but_metrics_live(self):
        telemetry = Telemetry(enabled=False)
        assert telemetry.stage("s") is runtime.NULL_CONTEXT
        telemetry.counter("still.works").inc()
        assert telemetry.counter("still.works").value == 1.0
        assert telemetry.stage_summary() == {}
        assert len(telemetry.rows) == 0

    def test_snapshot_shape(self):
        telemetry = Telemetry(clock=FakeClock())
        telemetry.counter("c").inc()
        with telemetry.stage("s"):
            pass
        snap = telemetry.snapshot()
        assert snap["enabled"] is True
        assert snap["metrics"]["counters"]["c"] == 1.0
        assert snap["rows"] == 1

    def test_write_json_and_trace(self, tmp_path):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock)
        with telemetry.stage("s"):
            clock.advance(0.002)
        json_path = telemetry.write_json(str(tmp_path / "t.json"), run="r1")
        payload = json.loads((tmp_path / "t.json").read_text())
        assert json_path.endswith("t.json")
        assert payload["run"] == "r1"
        assert payload["rows"] == 1
        assert telemetry.write_trace(str(tmp_path / "t.jsonl")) == 1

    def test_prometheus_roundtrip(self):
        telemetry = Telemetry(clock=FakeClock())
        telemetry.counter("controller.periods").inc(2)
        assert "controller_periods_total 2" in telemetry.to_prometheus()
