"""Metric stream sources and the wire-record format.

The service's ingestion boundary is a list of plain JSON-safe dicts
("wire records") per poll — deliberately schema-light so the chaos
layer in :mod:`repro.sim.faults` can drop/reorder/duplicate/stall them
without importing this package. Record kinds:

``header``
    Once per stream (first, in a healthy stream): host name, capacity
    by metric, container kinds, and the sensitive container name.
``sample``
    One container's metric readings for one tick:
    ``{"kind": "sample", "tick": t, "host": h, "container": c,
    "metrics": {"cpu": ..., ...}}``. The assembler flattens these into
    per-``(tick, container, metric)`` cells — the deduplication key.
``state``
    Container lifecycle state (``running``/``paused``/``stopped``/
    ``created``) plus the application's ``finished`` flag for one tick.
``qos``
    The sensitive application's QoS report for one tick (``value`` +
    ``threshold``); absent on ticks where the app reported nothing.

Two production sources are provided: :class:`JsonlReplaySource` reads
a recorded run back (see :mod:`repro.service.recording`), and
:class:`PrometheusScrapeSource` polls a scrape callable and parses the
:func:`repro.telemetry.exporters.to_prometheus_text` exposition format
back into samples (:func:`parse_prometheus_text` is the round-trip
contract the exporter is tested against). :class:`QueueSource` is the
in-process bridge used by the live drills and the fleet stream cells.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union


class StreamError(RuntimeError):
    """A source failed to produce records (connection/parse trouble).

    The :class:`~repro.service.controller_service.ControllerService`
    treats this as a transient source outage: it backs off with
    exponential delay + jitter and calls :meth:`StreamSource.reconnect`
    before polling again.
    """


class StreamSource:
    """Base class for pollable record sources."""

    def poll(self) -> List[dict]:
        """Return the next batch of wire records (empty when idle)."""
        raise NotImplementedError

    def reconnect(self) -> None:
        """Re-establish the transport after a :class:`StreamError`."""

    @property
    def exhausted(self) -> bool:
        """True when the source will never produce records again."""
        return False


class QueueSource(StreamSource):
    """An in-process FIFO of wire records.

    Producers (the live-sim bridge, fleet stream cells, tests) call
    :meth:`push`; each :meth:`poll` drains everything pushed since the
    previous poll. ``fail_polls`` makes the next N polls raise
    :class:`StreamError` — the deterministic hook the reconnect/backoff
    tests and drills use.
    """

    def __init__(self) -> None:
        self._queue: List[dict] = []
        self._closed = False
        self.fail_polls = 0
        self.reconnects = 0

    def push(self, records: Iterable[dict]) -> None:
        """Enqueue records for the next poll."""
        self._queue.extend(records)

    def close(self) -> None:
        """Mark the source exhausted once the queue drains."""
        self._closed = True

    def poll(self) -> List[dict]:
        if self.fail_polls > 0:
            self.fail_polls -= 1
            raise StreamError("injected source failure")
        batch, self._queue = self._queue, []
        return batch

    def reconnect(self) -> None:
        self.reconnects += 1

    @property
    def exhausted(self) -> bool:
        return self._closed and not self._queue and self.fail_polls == 0


class JsonlReplaySource(StreamSource):
    """Replay a recorded run from stream-JSONL, one data tick per poll.

    Replay runs as fast as the consumer pulls; each :meth:`poll`
    delivers the records of the next data tick (plus any tickless
    record, such as the header, ahead of it).

    Parameters
    ----------
    path:
        File written by
        :func:`repro.service.recording.write_stream_jsonl` (or any
        JSONL of wire records).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._records = self._load()
        self._cursor = 0

    def _load(self) -> List[dict]:
        records: List[dict] = []
        try:
            with self.path.open(encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise StreamError(
                            f"{self.path}:{line_number}: invalid JSON ({exc})"
                        ) from exc
                    if not isinstance(record, dict) or "kind" not in record:
                        raise StreamError(
                            f"{self.path}:{line_number}: not a wire record"
                        )
                    records.append(record)
        except OSError as exc:
            raise StreamError(f"cannot read {self.path}: {exc}") from exc
        return records

    def poll(self) -> List[dict]:
        if self._cursor >= len(self._records):
            return []
        batch: List[dict] = []
        batch_tick = None
        while self._cursor < len(self._records):
            record = self._records[self._cursor]
            tick = record.get("tick")
            if tick is not None:
                if batch_tick is not None and tick != batch_tick:
                    break
                batch_tick = tick
            batch.append(record)
            self._cursor += 1
        return batch

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._records)


# -- Prometheus text exposition parsing ----------------------------------------

#: ``name{labels} value [timestamp]`` — the exposition sample line.
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


@dataclass(frozen=True)
class PromSample:
    """One parsed exposition sample: name, sorted labels, value."""

    name: str
    labels: Tuple[Tuple[str, str], ...]
    value: float

    def label(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """Value of one label (``default`` when absent)."""
        for k, v in self.labels:
            if k == key:
                return v
        return default


def _unescape_label(value: str) -> str:
    return value.replace(r"\\", "\\").replace(r"\n", "\n").replace(r"\"", '"')


def parse_prometheus_text(text: str) -> List[PromSample]:
    """Parse the Prometheus text exposition format into samples.

    The inverse of :func:`repro.telemetry.exporters.to_prometheus_text`
    for every sample line it emits (``# HELP``/``# TYPE`` comments are
    skipped); metric names, label sets and values round-trip exactly —
    the contract ``tests/unit/test_stream_sources.py`` pins down.
    Raises :class:`StreamError` on malformed sample lines.
    """
    samples: List[PromSample] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise StreamError(f"line {line_number}: not an exposition sample: {raw!r}")
        labels_text = match.group("labels") or ""
        labels = tuple(
            sorted(
                (key, _unescape_label(value))
                for key, value in _LABEL_PAIR.findall(labels_text)
            )
        )
        value_text = match.group("value")
        try:
            value = float(value_text)
        except ValueError as exc:
            raise StreamError(
                f"line {line_number}: invalid sample value {value_text!r}"
            ) from exc
        samples.append(PromSample(name=match.group("name"), labels=labels, value=value))
    return samples


class PrometheusScrapeSource(StreamSource):
    """Scrape-and-parse source over the usage-gauge exposition.

    Each poll calls ``scrape`` (a callable returning exposition text —
    typically reading an HTTP endpoint or a textfile the exporter
    writes), parses it with :func:`parse_prometheus_text` and converts
    the :class:`~repro.service.exporter.UsageGaugeExporter` families
    back into wire records:

    * ``<prefix>_usage{host=,container=,metric=}`` → ``sample`` cells,
    * ``<prefix>_container_state{...}`` / ``_finished`` → ``state``,
    * ``<prefix>_qos{...}`` / ``_qos_threshold`` → ``qos``,
    * ``<prefix>_capacity{metric=}`` → the stream ``header``,
    * ``<prefix>_tick`` → the data tick every record of this scrape
      carries.

    A scrape is one instant's view: scraping slower than the data tick
    advances simply yields gapped ticks, which the assembler imputes —
    the same partial-data semantics as any other source. Scrape
    failures (the callable raising ``OSError``/``ValueError``, or a
    ``_tick`` that is not a finite integer) surface as
    :class:`StreamError` for the reconnect path.
    """

    def __init__(self, scrape: Callable[[], str], prefix: str = "stayaway") -> None:
        self.scrape = scrape
        self.prefix = prefix
        self._header_sent = False
        self._last_tick: Optional[int] = None

    def poll(self) -> List[dict]:
        try:
            text = self.scrape()
        except (OSError, ValueError) as exc:
            raise StreamError(f"scrape failed: {exc}") from exc
        samples = parse_prometheus_text(text)
        by_name: Dict[str, List[PromSample]] = {}
        for sample in samples:
            by_name.setdefault(sample.name, []).append(sample)

        tick_samples = by_name.get(f"{self.prefix}_tick")
        if not tick_samples:
            return []
        value = tick_samples[0].value
        if not value.is_integer():  # NaN, ±Inf and fractional ticks
            raise StreamError(f"invalid scrape tick {value!r}")
        tick = int(value)
        if self._last_tick is not None and tick <= self._last_tick:
            return []  # same scrape instant again; nothing new
        self._last_tick = tick

        records: List[dict] = []
        host = tick_samples[0].label("host", "host0")
        if not self._header_sent:
            records.append(self._header(host, by_name))
            self._header_sent = True

        cells: Dict[str, Dict[str, float]] = {}
        for sample in by_name.get(f"{self.prefix}_usage", ()):
            container = sample.label("container")
            metric = sample.label("metric")
            if container is None or metric is None:
                continue
            cells.setdefault(container, {})[metric] = sample.value
        for container, metrics in sorted(cells.items()):
            records.append(
                {
                    "kind": "sample",
                    "tick": tick,
                    "host": host,
                    "container": container,
                    "metrics": metrics,
                }
            )

        states: Dict[str, dict] = {}
        for sample in by_name.get(f"{self.prefix}_container_state", ()):
            container = sample.label("container")
            state = sample.label("state")
            if container is None or state is None or sample.value != 1.0:
                continue
            states.setdefault(container, {})["state"] = state
        for sample in by_name.get(f"{self.prefix}_container_finished", ()):
            container = sample.label("container")
            if container is None:
                continue
            states.setdefault(container, {})["finished"] = bool(sample.value)
        for container, info in sorted(states.items()):
            records.append(
                {
                    "kind": "state",
                    "tick": tick,
                    "host": host,
                    "container": container,
                    "state": info.get("state", "running"),
                    "finished": info.get("finished", False),
                }
            )

        qos_samples = by_name.get(f"{self.prefix}_qos", ())
        threshold_samples = by_name.get(f"{self.prefix}_qos_threshold", ())
        if qos_samples and threshold_samples:
            records.append(
                {
                    "kind": "qos",
                    "tick": tick,
                    "host": host,
                    "container": qos_samples[0].label("container", ""),
                    "value": qos_samples[0].value,
                    "threshold": threshold_samples[0].value,
                }
            )
        return records

    def _header(self, host: str, by_name: Dict[str, List[PromSample]]) -> dict:
        capacity = {
            sample.label("metric"): sample.value
            for sample in by_name.get(f"{self.prefix}_capacity", ())
            if sample.label("metric") is not None
        }
        containers: Dict[str, str] = {}
        for sample in by_name.get(f"{self.prefix}_container_state", ()):
            container = sample.label("container")
            kind = sample.label("container_kind")
            if container is not None and sample.value == 1.0:
                containers[container] = kind or "batch"
        sensitive = sorted(
            name for name, kind in containers.items() if kind == "sensitive"
        )
        return {
            "kind": "header",
            "host": host,
            "capacity": capacity,
            "containers": containers,
            "sensitive": sensitive[0] if sensitive else "",
        }
