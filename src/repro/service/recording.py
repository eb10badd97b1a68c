"""Publish a simulated host's ticks as wire records.

:class:`StreamRecorder` is an engine middleware: registered *before*
the controller it observes, it serializes exactly what a monitoring
agent on the host would publish — one ``header``, then per tick one
``sample`` record per container, one ``state`` record per container
and (when the sensitive application has produced a report) one
``qos`` record — and keeps the records. The output JSONL replays
through :class:`~repro.service.stream.JsonlReplaySource` into a
:class:`~repro.service.controller_service.ControllerService`, and the
replay-determinism gate asserts the serviced controller makes the
same pause/resume decisions the in-process one did.

:meth:`StreamPublisher.on_tick` is the one place a host snapshot
becomes a tick's record list; where the list goes is each subclass's
:meth:`~StreamPublisher.publish`. :class:`StreamRecorder` keeps it; the
live sim-to-stream bridge
(:class:`~repro.experiments.stream_chaos.SimStreamBridge`) is the same
middleware publishing into a queue, so recorded and live streams are
equal record for record.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.observation import METRICS

if TYPE_CHECKING:
    from repro.sim.host import Host, HostSnapshot
    from repro.sim.resources import ResourceVector
    from repro.workloads.base import Application


def _wire_vector(vector: "ResourceVector") -> Dict[str, float]:
    """A resource vector as a wire ``metrics`` / ``capacity`` dict."""
    return dict(zip(METRICS, map(float, vector.values())))


def header_record(host: "Host", host_name: str = "host0") -> dict:
    """The stream ``header`` for a host: capacity + container kinds."""
    return {
        "kind": "header",
        "host": host_name,
        "capacity": _wire_vector(host.capacity),
        "containers": {
            name: ("sensitive" if container.sensitive else "batch")
            for name, container in sorted(host.containers.items())
        },
        "sensitive": next(
            (c.name for c in host.sensitive_containers()), ""
        ),
    }


def snapshot_records(
    snapshot: "HostSnapshot", host: "Host", host_name: str = "host0"
) -> List[dict]:
    """One tick's ``sample`` + ``state`` records from a live snapshot."""
    records: List[dict] = []
    for name in sorted(snapshot.usage):
        usage = snapshot.usage[name]
        records.append(
            {
                "kind": "sample",
                "tick": snapshot.tick,
                "host": host_name,
                "container": name,
                "metrics": _wire_vector(usage),
            }
        )
    for name in sorted(snapshot.states):
        state = snapshot.states[name]
        container = host.containers.get(name)
        records.append(
            {
                "kind": "state",
                "tick": snapshot.tick,
                "host": host_name,
                "container": name,
                "state": state.value,
                "finished": bool(
                    container is not None and container.app.finished
                ),
                "sensitive": bool(container is not None and container.sensitive),
            }
        )
    return records


def qos_record(
    tick: int, app: "Application", host_name: str = "host0"
) -> Optional[dict]:
    """The tick's ``qos`` record, or None before the app's first report."""
    report = app.qos_report()
    if report is None:
        return None
    return {
        "kind": "qos",
        "tick": tick,
        "host": host_name,
        "container": app.name,
        "value": float(report.value),
        "threshold": float(report.threshold),
    }


class StreamPublisher:
    """Middleware that turns each tick into wire records for :meth:`publish`.

    Parameters
    ----------
    sensitive_app:
        The application whose QoS reports become ``qos`` records;
        discovered from the host's sensitive containers on the first
        tick when omitted.
    host_name:
        Host label stamped on every record.
    """

    def __init__(
        self,
        sensitive_app: Optional["Application"] = None,
        host_name: str = "host0",
    ) -> None:
        self.host_name = host_name
        self.sensitive_app = sensitive_app
        self._header_done = False

    def on_tick(self, snapshot: "HostSnapshot", host: "Host") -> None:
        records: List[dict] = []
        if not self._header_done:
            records.append(header_record(host, self.host_name))
            if self.sensitive_app is None:
                sensitive = host.sensitive_containers()
                if sensitive:
                    self.sensitive_app = sensitive[0].app
            self._header_done = True
        records.extend(snapshot_records(snapshot, host, self.host_name))
        if self.sensitive_app is not None:
            record = qos_record(snapshot.tick, self.sensitive_app, self.host_name)
            if record is not None:
                records.append(record)
        self.publish(records)

    def publish(self, records: List[dict]) -> None:
        """Take one tick's records."""
        raise NotImplementedError


class StreamRecorder(StreamPublisher):
    """The publisher that keeps every record, for :meth:`write`.

    Records the default ``host0``; ``sensitive_app`` is as for
    :class:`StreamPublisher`.
    """

    def __init__(self, sensitive_app: Optional["Application"] = None) -> None:
        super().__init__(sensitive_app=sensitive_app)
        self.records: List[dict] = []

    def publish(self, records: List[dict]) -> None:
        """Take one tick's records: the recorder keeps them."""
        self.records.extend(records)

    def write(self, path: Union[str, Path]) -> Path:
        """Persist the captured stream as JSONL."""
        return write_stream_jsonl(path, self.records)


def write_stream_jsonl(
    path: Union[str, Path], records: List[dict]
) -> Path:
    """Write wire records as one-JSON-object-per-line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    return path
