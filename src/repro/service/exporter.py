"""Expose live host state as Prometheus gauges for the scrape source.

:class:`UsageGaugeExporter` is the publishing half of the scrape
round trip: a :class:`~repro.service.recording.StreamPublisher` whose
:meth:`~UsageGaugeExporter.publish` mirrors each tick's wire records
into a dedicated :class:`~repro.telemetry.registry.MetricRegistry` as
the ``<prefix>_*`` gauge families
:class:`~repro.service.stream.PrometheusScrapeSource` parses back:

=============================  =======================================
family                          meaning
=============================  =======================================
``<prefix>_tick{host}``         newest data tick in this exposition
``<prefix>_capacity{metric}``   host capacity per resource
``<prefix>_usage{...}``         per-container per-metric usage
``<prefix>_container_state``    1.0 on the current lifecycle state
``<prefix>_container_finished`` 1.0 once the hosted app finished
``<prefix>_qos{container}``     sensitive app's latest QoS value
``<prefix>_qos_threshold``      its violation threshold
=============================  =======================================

:meth:`scrape` renders the registry with
:func:`repro.telemetry.exporters.to_prometheus_text` — values use
exact round-trip formatting, so a scraped measurement equals the
snapshot's float bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.telemetry.exporters import to_prometheus_text
from repro.telemetry.registry import MetricRegistry

from repro.service.recording import StreamPublisher

if TYPE_CHECKING:
    from repro.workloads.base import Application

#: Lifecycle states every container's state family enumerates.
_STATES = ("created", "running", "paused", "stopped")


class UsageGaugeExporter(StreamPublisher):
    """Mirror each tick's wire records into scrapeable gauge families.

    Parameters
    ----------
    sensitive_app:
        Application whose QoS reports feed the ``_qos`` families;
        discovered from the host on the first tick when omitted.
    host_name / prefix:
        Labels matching what the paired
        :class:`~repro.service.stream.PrometheusScrapeSource` expects.
    """

    def __init__(
        self,
        sensitive_app: Optional["Application"] = None,
        host_name: str = "host0",
        prefix: str = "stayaway",
    ) -> None:
        super().__init__(sensitive_app=sensitive_app, host_name=host_name)
        self.registry = MetricRegistry()
        self.prefix = prefix

    def publish(self, records: List[dict]) -> None:
        """Set the gauges from one tick's records."""
        gauge = self.registry.gauge
        prefix = self.prefix
        for record in records:
            kind = record["kind"]
            if kind == "header":
                for metric, value in record["capacity"].items():
                    gauge(
                        f"{prefix}_capacity",
                        help="host capacity per resource",
                        labels={"metric": metric},
                    ).set(value)
                continue
            gauge(
                f"{prefix}_tick",
                help="newest data tick in this exposition",
                labels={"host": record["host"]},
            ).set(record["tick"])
            container = record["container"]
            if kind == "sample":
                for metric, value in record["metrics"].items():
                    gauge(
                        f"{prefix}_usage",
                        help="per-container resource usage",
                        labels={
                            "host": record["host"],
                            "container": container,
                            "metric": metric,
                        },
                    ).set(value)
            elif kind == "state":
                container_kind = "sensitive" if record["sensitive"] else "batch"
                for candidate in _STATES:
                    gauge(
                        f"{prefix}_container_state",
                        help="1.0 on the container's current lifecycle state",
                        labels={
                            "container": container,
                            "state": candidate,
                            "container_kind": container_kind,
                        },
                    ).set(1.0 if record["state"] == candidate else 0.0)
                gauge(
                    f"{prefix}_container_finished",
                    help="1.0 once the hosted application finished",
                    labels={"container": container},
                ).set(1.0 if record["finished"] else 0.0)
            elif kind == "qos":
                gauge(
                    f"{prefix}_qos",
                    help="sensitive application's latest QoS value",
                    labels={"container": container},
                ).set(record["value"])
                gauge(
                    f"{prefix}_qos_threshold",
                    help="QoS violation threshold",
                    labels={"container": container},
                ).set(record["threshold"])

    def scrape(self) -> str:
        """The current exposition text (the scrape source's callable)."""
        return to_prometheus_text(self.registry)
