"""Unit tests for stream sources and the Prometheus round trip.

Pins the contract :mod:`repro.service.stream` documents: exposition
text from :func:`~repro.telemetry.exporters.to_prometheus_text` parses
back through :func:`~repro.service.stream.parse_prometheus_text` with
identical metric names, label sets and (bit-exact) values; the replay
and scrape sources turn their transports into well-formed wire-record
batches; :class:`QueueSource` drives the reconnect machinery.
"""

import math

import pytest

from repro.service.controller_service import ControllerService
from repro.service.exporter import UsageGaugeExporter
from repro.service.recording import write_stream_jsonl
from repro.service.stream import (
    JsonlReplaySource,
    PrometheusScrapeSource,
    QueueSource,
    StreamError,
    parse_prometheus_text,
)
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host
from repro.telemetry.exporters import to_prometheus_text
from repro.telemetry.registry import MetricRegistry

from tests.conftest import ConstantApp, SensitiveStub


class TestPrometheusRoundTrip:
    def build_registry(self):
        registry = MetricRegistry()
        registry.counter("requests.served", help="requests").inc(41)
        registry.gauge(
            "usage", help="cpu", labels={"host": "h0", "container": "c0"}
        ).set(0.1 + 0.2)  # 0.30000000000000004: %g would mangle it
        registry.gauge("plain").set(-2.5)
        registry.gauge(
            "weird", labels={"note": 'quote " and \\ and\nnewline'}
        ).set(1e-17)
        histogram = registry.histogram("latency", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(5.0)
        return registry

    def test_every_sample_line_round_trips_exactly(self):
        registry = self.build_registry()
        text = to_prometheus_text(registry)
        samples = parse_prometheus_text(text)
        by_key = {(s.name, s.labels): s.value for s in samples}
        # Same number of sample lines as parsed samples: nothing skipped.
        sample_lines = [
            line
            for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(sample_lines) == len(samples)
        assert by_key[("requests_served_total", ())] == 41.0
        key = ("usage", (("container", "c0"), ("host", "h0")))
        assert by_key[key] == 0.1 + 0.2  # bit-exact, not approx
        assert by_key[("plain", ())] == -2.5
        weird = ("weird", (("note", 'quote " and \\ and\nnewline'),))
        assert by_key[weird] == 1e-17
        assert by_key[("latency_sum", ())] == 0.05 + 5.0
        assert by_key[("latency_count", ())] == 2.0
        assert by_key[("latency_bucket", (("le", "+Inf"),))] == 2.0

    def test_round_trip_survives_reexport(self):
        """Parse -> rebuild -> export again: a fixpoint after one hop."""
        registry = self.build_registry()
        first = parse_prometheus_text(to_prometheus_text(registry))
        rebuilt = MetricRegistry()
        for sample in first:
            rebuilt.gauge(
                sample.name, labels=dict(sample.labels)
            ).set(sample.value)
        second = parse_prometheus_text(to_prometheus_text(rebuilt))
        assert {(s.name, s.labels, s.value) for s in second} == {
            (s.name, s.labels, s.value) for s in first
        }

    def test_malformed_lines_raise(self):
        with pytest.raises(StreamError):
            parse_prometheus_text("!!! not exposition\n")
        with pytest.raises(StreamError):
            parse_prometheus_text("metric_name not_a_number\n")

    def test_comments_and_blanks_skipped(self):
        assert parse_prometheus_text("# HELP x y\n# TYPE x gauge\n\n") == []


class TestQueueSource:
    def test_poll_drains_pushed_records(self):
        source = QueueSource()
        source.push([{"kind": "header"}, {"kind": "sample", "tick": 0}])
        assert len(source.poll()) == 2
        assert source.poll() == []
        assert not source.exhausted

    def test_close_exhausts_after_drain(self):
        source = QueueSource()
        source.push([{"kind": "header"}])
        source.close()
        assert not source.exhausted  # still holds a record
        source.poll()
        assert source.exhausted

    def test_fail_polls_raise_then_recover(self):
        source = QueueSource()
        source.push([{"kind": "header"}])
        source.fail_polls = 2
        with pytest.raises(StreamError):
            source.poll()
        with pytest.raises(StreamError):
            source.poll()
        assert len(source.poll()) == 1
        source.reconnect()
        assert source.reconnects == 1


class TestJsonlReplaySource:
    def write(self, tmp_path, records):
        return write_stream_jsonl(tmp_path / "stream.jsonl", records)

    def test_batches_by_tick(self, tmp_path):
        records = [{"kind": "header", "host": "h"}]
        for tick in range(3):
            records.append({"kind": "sample", "tick": tick, "container": "c"})
            records.append({"kind": "qos", "tick": tick, "value": 1.0})
        path = self.write(tmp_path, records)
        source = JsonlReplaySource(path)
        first = source.poll()
        # Header rides with the first tick's batch.
        assert [r["kind"] for r in first] == ["header", "sample", "qos"]
        assert len(source.poll()) == 2
        assert len(source.poll()) == 2
        assert source.exhausted
        assert source.poll() == []

    def test_validation_and_errors(self, tmp_path):
        with pytest.raises(StreamError):
            JsonlReplaySource(tmp_path / "missing.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        with pytest.raises(StreamError):
            JsonlReplaySource(bad)
        not_record = tmp_path / "nr.jsonl"
        not_record.write_text('{"tick": 1}\n')
        with pytest.raises(StreamError):
            JsonlReplaySource(not_record)


class TestPrometheusScrapeSource:
    def exporting_engine(self):
        host = Host()
        sensitive = SensitiveStub()
        host.add_container(
            Container(name="sens", app=sensitive, sensitive=True)
        )
        host.add_container(Container(name="bomb", app=ConstantApp()))
        exporter = UsageGaugeExporter(host_name="host0")
        engine = SimulationEngine(host)
        engine.add_middleware(exporter)
        return engine, exporter

    def test_the_exporter_keeps_no_records(self):
        engine, exporter = self.exporting_engine()
        engine.run(ticks=1)
        assert list(exporter.registry)  # the tick was published
        assert not hasattr(exporter, "records")
        assert not hasattr(exporter, "write")

    def test_scrape_becomes_wire_records(self):
        engine, exporter = self.exporting_engine()
        engine.run(ticks=1)
        source = PrometheusScrapeSource(exporter.scrape)
        records = source.poll()
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "header"
        assert kinds.count("sample") == 2
        assert kinds.count("state") == 2
        assert kinds.count("qos") == 1
        header = records[0]
        assert header["sensitive"] == "sens"
        assert header["containers"] == {"sens": "sensitive", "bomb": "batch"}
        sample = next(r for r in records if r["kind"] == "sample")
        assert sample["tick"] == 0
        assert math.isfinite(sample["metrics"]["cpu"])

    def test_same_instant_scraped_twice_yields_nothing_new(self):
        engine, exporter = self.exporting_engine()
        engine.run(ticks=1)
        source = PrometheusScrapeSource(exporter.scrape)
        assert source.poll()
        assert source.poll() == []  # tick did not advance

    def test_tick_advance_yields_new_batch_without_header(self):
        engine, exporter = self.exporting_engine()
        engine.run(ticks=1)
        source = PrometheusScrapeSource(exporter.scrape)
        source.poll()
        engine.run(ticks=1)
        records = source.poll()
        assert records
        assert all(r["kind"] != "header" for r in records)
        assert all(r["tick"] == 1 for r in records)

    def test_scrape_failure_surfaces_as_stream_error(self):
        def broken():
            raise OSError("connection refused")

        source = PrometheusScrapeSource(broken)
        with pytest.raises(StreamError):
            source.poll()

    def test_empty_exposition_is_idle_not_error(self):
        source = PrometheusScrapeSource(lambda: "")
        assert source.poll() == []

    @pytest.mark.parametrize("bad_tick", ["NaN", "+Inf", "1e400", "12.5"])
    def test_bad_tick_is_a_stream_error_the_service_reconnects_past(self, bad_tick):
        """A non-finite or fractional ``_tick`` is a failed scrape, not a
        crash and not a silently truncated tick."""
        engine, exporter = self.exporting_engine()
        engine.run(ticks=1)
        good = exporter.scrape()
        tick_line = 'stayaway_tick{host="host0"} 0.0'
        assert tick_line in good
        bad = good.replace(tick_line, f'stayaway_tick{{host="host0"}} {bad_tick}')
        scrapes = iter([bad])
        service = ControllerService(PrometheusScrapeSource(lambda: next(scrapes, good)))
        service.start()
        for _ in range(3):
            service.pump()
        assert service.summary()["telemetry"]["stream"]["reconnects"] == 1
        assert service.assembler.max_seen == 0
