"""Unit tests for the telemetry layer (PR 2).

Covers the registry (get-or-create, label identity, type conflicts),
histograms, stage timers and span nesting against a fake clock, the
three export formats, and the Telemetry facade's enabled/disabled
behaviour. A span is only ever produced by a stage (``Telemetry.stage``
-> ``StageTimer`` -> ``Tracer.defer`` / ``settle``); the eager tracer
the stages are compared against lives in ``tests/support``.
"""

import contextlib
import json

import pytest

from repro.telemetry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    StageTimer,
    Telemetry,
    Tracer,
    prometheus_name,
    registry_snapshot,
    render_key,
    to_prometheus_text,
    write_json_snapshot,
    write_trace_jsonl,
)
from repro.telemetry.spans import NULL_CONTEXT
from tests.support.span_reference import PlainSpanTracer


class FakeClock:
    """Deterministic monotonic clock advancing only on demand."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@contextlib.contextmanager
def stage(tracer, name, **attrs):
    """One stage straight on the tracer, as ``StageTimer`` opens it."""
    row = tracer.defer(name, attrs)
    try:
        yield
    finally:
        tracer.settle(row)


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
        hist = Histogram("stage_seconds")
        timer = StageTimer(hist, tracer=Tracer(clock=clock))
        for elapsed in (0.1, 0.3):
            with timer:
                clock.advance(elapsed)
        assert hist.count == 2
        assert hist.sum == pytest.approx(0.4)
        assert timer.last == pytest.approx(0.3)

    def test_stage_timer_opens_span(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        timer = StageTimer(
            Histogram("map_seconds"), tracer=tracer, name="map", attrs={"tick": 7},
        )
        with timer:
            clock.advance(0.5)
        (span,) = tracer.spans
        assert span.name == "map"
        assert span.attrs == {"tick": 7}
        assert span.duration == pytest.approx(0.5)

    def test_stage_timer_not_reentrant(self):
        timer = StageTimer(Histogram("h"), tracer=Tracer(clock=FakeClock()))
        with timer:
            with pytest.raises(RuntimeError):
                timer.__enter__()

    def test_stage_timer_exit_without_enter_raises(self):
        with pytest.raises(RuntimeError, match="never entered"):
            StageTimer(Histogram("h"), tracer=Tracer()).__exit__(None, None, None)

    @pytest.mark.parametrize("max_spans", [20_000, 7, 3, 0])
    def test_stage_spans_equal_tracer_spans(self, max_spans):
        """A stage stays a bare row until somebody reads its span. Over
        whole controller periods — stages nested in stages, a stage
        that raises through its parents, periods under an outer stage —
        the tree, the ids, the retention, the JSONL records and the
        durations must be those the eager reference tracer produces."""

        def period(stage, tracer, clock, durations, tick, fail=False):
            with stage(tracer, clock, "controller.period", durations, tick=tick):
                clock.advance(0.5)
                with stage(tracer, clock, "controller.reconcile", durations):
                    clock.advance(0.0625)
                with stage(tracer, clock, "controller.map", durations):
                    clock.advance(0.25)
                    with stage(tracer, clock, "mapping.refit", durations):
                        with stage(tracer, clock, "smacof", durations, states=9):
                            clock.advance(1.0)
                        with stage(tracer, clock, "geometry.rebuild", durations):
                            clock.advance(2.0)
                    if fail:
                        raise RuntimeError("mapping blew up")
                with stage(tracer, clock, "controller.predict", durations):
                    with stage(tracer, clock, "geometry.rebuild", durations):
                        clock.advance(0.03125)
                with stage(tracer, clock, "controller.act", durations):
                    clock.advance(0.125)

        def tree(stage, tracer_type):
            clock = FakeClock()
            tracer = tracer_type(clock=clock, max_spans=max_spans)
            durations = []
            period(stage, tracer, clock, durations, tick=4)
            with pytest.raises(RuntimeError, match="blew up"):
                period(stage, tracer, clock, durations, tick=5, fail=True)
            with stage(tracer, clock, "fleet.cell", durations, host="h0"):
                period(stage, tracer, clock, durations, tick=6)
            return (
                tracer.to_dicts(),
                [span.span_id for span in tracer.spans],
                tracer.dropped,
                tracer.span_tree(),
                tracer.span_tree(last=1),
                durations,
            )

        @contextlib.contextmanager
        def timed(tracer, clock, name, durations, **attrs):
            timer = StageTimer(
                Histogram(f"{name}_seconds"), tracer=tracer, name=name, attrs=attrs,
            )
            try:
                with timer:
                    yield
            finally:
                durations.append((timer.last, timer.histogram.sum))

        @contextlib.contextmanager
        def plain(tracer, clock, name, durations, **attrs):
            try:
                with tracer.span(name, **attrs) as span:
                    yield
            finally:
                durations.append((span.duration, span.duration))

        timed_tree, plain_tree = tree(timed, Tracer), tree(plain, PlainSpanTracer)
        assert timed_tree == plain_tree
        # the scenario really nested, raised and hit the retention cap
        assert len(plain_tree[0]) == min(max_spans, 25)
        assert plain_tree[2] == 25 - min(max_spans, 25)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_from_call_order(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with stage(tracer, "period", tick=1):
            clock.advance(0.1)
            with stage(tracer, "map"):
                clock.advance(0.2)
        inner, period = tracer.spans  # in the order they finished
        assert (period.name, inner.name) == ("period", "map")
        assert (period.span_id, inner.span_id) == (0, 1)
        assert inner.parent_id == period.span_id
        assert (period.depth, inner.depth) == (0, 1)
        assert period.duration == pytest.approx(0.3)
        assert inner.duration == pytest.approx(0.2)

    def test_a_stage_after_a_nest_is_a_root_again(self):
        tracer = Tracer(clock=FakeClock())
        with stage(tracer, "outer"):
            with stage(tracer, "inner"):
                pass
            with stage(tracer, "sibling"):
                pass
        with stage(tracer, "next"):
            pass
        assert [(s.name, s.parent_id, s.depth) for s in tracer.spans] == [
            ("inner", 0, 1), ("sibling", 0, 1), ("outer", None, 0), ("next", None, 0),
        ]

    def test_max_spans_cap_counts_dropped(self):
        tracer = Tracer(clock=FakeClock(), max_spans=2)
        for i in range(5):
            with stage(tracer, f"s{i}"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_span_tree_renders_indented(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with stage(tracer, "period", tick=3):
            with stage(tracer, "map"):
                clock.advance(0.001)
        tree = tracer.span_tree()
        lines = tree.splitlines()
        assert lines[0].startswith("period (tick=3)")
        assert lines[1].startswith("  map")

    def test_span_tree_last_filters_roots(self):
        tracer = Tracer(clock=FakeClock())
        for tick in range(4):
            with stage(tracer, "period", tick=tick):
                with stage(tracer, "map"):
                    pass
        tree = tracer.span_tree(last=2)
        assert tree.count("period") == 2
        assert "tick=0" not in tree and "tick=3" in tree


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
        tracer = Tracer(clock=FakeClock())
        with stage(tracer, "s"):
            pass
        path = tmp_path / "snap.json"
        write_json_snapshot(
            self._populated_registry(), str(path), tracer=tracer,
            extra={"policy": "stayaway"},
        )
        payload = json.loads(path.read_text())
        assert payload["policy"] == "stayaway"
        assert payload["metrics"]["gauges"]["beta"] == 0.75
        assert payload["spans"] == {"recorded": 1, "dropped": 0}

    def test_write_trace_jsonl(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with stage(tracer, "period", tick=1):
            with stage(tracer, "map"):
                clock.advance(0.25)
        path = tmp_path / "trace.jsonl"
        count = write_trace_jsonl(tracer, str(path))
        lines = path.read_text().splitlines()
        assert count == len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["period", "map"]
        assert records[1]["parent_id"] == records[0]["span_id"]
        assert records[1]["duration"] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# facade
# ---------------------------------------------------------------------------


class TestTelemetryFacade:
    def test_stage_times_into_histogram_and_span(self):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock)
        with telemetry.stage("controller.map", tick=5):
            clock.advance(0.01)
        summary = telemetry.stage_summary()
        assert summary["controller.map"]["count"] == 1
        assert summary["controller.map"]["sum"] == pytest.approx(0.01)
        (span,) = telemetry.tracer.spans
        assert span.name == "controller.map"
        assert span.attrs == {"tick": 5}

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
        assert [s.attrs["tick"] for s in telemetry.tracer.spans] == [1, 2]

    def test_disabled_stage_is_null_context_but_metrics_live(self):
        telemetry = Telemetry(enabled=False)
        assert telemetry.stage("s") is NULL_CONTEXT
        telemetry.counter("still.works").inc()
        assert telemetry.counter("still.works").value == 1.0
        assert telemetry.stage_summary() == {}

    def test_snapshot_shape(self):
        telemetry = Telemetry(clock=FakeClock())
        telemetry.counter("c").inc()
        with telemetry.stage("s"):
            pass
        snap = telemetry.snapshot()
        assert snap["enabled"] is True
        assert snap["metrics"]["counters"]["c"] == 1.0
        assert snap["spans"]["recorded"] == 1

    def test_write_json_and_trace(self, tmp_path):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock)
        with telemetry.stage("s"):
            clock.advance(0.002)
        json_path = telemetry.write_json(str(tmp_path / "t.json"), run="r1")
        payload = json.loads((tmp_path / "t.json").read_text())
        assert json_path.endswith("t.json")
        assert payload["run"] == "r1"
        assert telemetry.write_trace(str(tmp_path / "t.jsonl")) == 1

    def test_prometheus_roundtrip(self):
        telemetry = Telemetry(clock=FakeClock())
        telemetry.counter("controller.periods").inc(2)
        assert "controller_periods_total 2" in telemetry.to_prometheus()
