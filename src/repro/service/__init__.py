"""Controller-as-a-service: streaming ingestion, pluggable actuation.

The in-process runtime constructs the Stay-Away controller around the
simulator: the engine hands it perfect per-tick snapshots and its
pause/resume calls land instantly. This package splits the controller
behind the ``monitoring`` seam into a standalone service:

* :mod:`repro.service.stream` — metric *sources*: JSONL replay of
  recorded runs and Prometheus-text scrape (the
  :mod:`repro.telemetry.exporters` exposition format), both yielding
  plain wire records;
* :mod:`repro.service.assembler` — the :class:`StreamAssembler`, the
  stream side's one container table, reorders by watermark,
  deduplicates by ``(tick, container, metric)``, holds per-cell last
  values over partial ticks and closes ticks on watermark expiry into
  per-container rows, so the controller steps on partial-but-bounded
  data instead of blocking;
* :mod:`repro.service.views` — the stream's side of the controller's
  port: a closed tick's rows, with the commands in flight overlaid, as
  the :class:`~repro.observation.Observation` the unmodified
  :class:`~repro.core.controller.StayAway` reads;
* :mod:`repro.service.actuator` — the pluggable acknowledged actuation
  seam: every pause/resume command must be acked within a timeout,
  unacked commands retry with backoff and finally land in a
  dead-letter log reconciled through the
  :mod:`repro.core.action` escalation path;
* :mod:`repro.service.controller_service` — the
  :class:`ControllerService` lifecycle (start/drain/stop), source
  reconnect with exponential backoff + jitter, and stall-deadline
  degradation into the existing
  :class:`~repro.core.resilience.DegradedModeMachine`;
* :mod:`repro.service.recording` — the tick publisher
  (:class:`StreamRecorder`): the one place a host snapshot becomes
  wire records, kept as the stream-JSONL the replay source consumes;
* :mod:`repro.service.exporter` — the usage-gauge exporter the scrape
  source reads back (closing the Prometheus round trip).

Layering: ``service`` imports ``core``/``monitoring``/``telemetry``
and nothing of ``sim``; nothing below it may import ``service``.
"""

from repro.service.actuator import (
    ActuatorCommand,
    AckTracker,
    CommandStatus,
    NullActuator,
    RecordingActuator,
    SimHostActuator,
)
from repro.service.assembler import ClosedTick, PassthroughAssembler, StreamAssembler
from repro.service.controller_service import (
    ControllerService,
    ServiceState,
    decision_sequence,
)
from repro.service.exporter import UsageGaugeExporter
from repro.service.recording import (
    StreamRecorder,
    snapshot_records,
    write_stream_jsonl,
)
from repro.service.stream import (
    JsonlReplaySource,
    PrometheusScrapeSource,
    PromSample,
    QueueSource,
    StreamError,
    parse_prometheus_text,
)

__all__ = [
    "AckTracker",
    "ActuatorCommand",
    "ClosedTick",
    "CommandStatus",
    "ControllerService",
    "JsonlReplaySource",
    "NullActuator",
    "PassthroughAssembler",
    "PromSample",
    "PrometheusScrapeSource",
    "QueueSource",
    "RecordingActuator",
    "ServiceState",
    "SimHostActuator",
    "StreamAssembler",
    "StreamError",
    "StreamRecorder",
    "decision_sequence",
    "UsageGaugeExporter",
    "parse_prometheus_text",
    "snapshot_records",
    "write_stream_jsonl",
]
