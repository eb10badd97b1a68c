"""Application-reported QoS tracking.

"Stay-Away relies on the application to report whenever a QoS violation
happens in order to label the mapped state corresponding to the QoS
violation" (§3.1). :class:`QosTracker` is that channel: a middleware
that polls the sensitive application's :class:`~repro.workloads.base.QosReport`
each tick and keeps the violation/qos history for both the controller
and the analysis code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.monitoring.timeseries import Series

if TYPE_CHECKING:
    from repro.sim.host import Host, HostSnapshot
    from repro.workloads.base import Application, QosReport


class QosChannel:
    """The read surface every violation channel shares.

    A channel is whatever the controller is handed as its QoS source:
    :class:`QosTracker` (application reports),
    :class:`~repro.monitoring.ipc.IpcViolationDetector` (counters) or
    :class:`~repro.service.views.StreamQosChannel` (wire records). Each
    decides *where* a report comes from in its own ``on_tick``; the
    history it keeps and the questions asked of it are the same.
    """

    def __init__(self, series_name: str) -> None:
        self.qos_series = Series(name=series_name)
        self.violation_ticks: List[int] = []
        self._last_report: Optional[QosReport] = None

    def _record(self, tick: int, report: QosReport) -> None:
        """Keep ``report`` as the latest and file its value and verdict."""
        self._last_report = report
        self.qos_series.append(tick, report.value)
        if report.violated:
            self.violation_ticks.append(tick)

    @property
    def last_report(self) -> Optional[QosReport]:
        """Most recent report (None before the first one)."""
        return self._last_report

    @property
    def violation_now(self) -> bool:
        """True when the latest report is a violation."""
        return self._last_report is not None and self._last_report.violated

    @property
    def violation_count(self) -> int:
        """Number of violating ticks observed so far."""
        return len(self.violation_ticks)

    def violation_ratio(self) -> float:
        """Fraction of reported ticks that violated QoS."""
        total = len(self.qos_series)
        if total == 0:
            return 0.0
        return len(self.violation_ticks) / total


class QosTracker(QosChannel):
    """Tracks one sensitive application's QoS over the run.

    Parameters
    ----------
    app:
        The sensitive application whose reports are polled.
    """

    def __init__(self, app: Application) -> None:
        if not app.is_sensitive:
            raise ValueError(
                f"QosTracker expects a sensitive application, got {app.name!r} "
                f"of kind {app.kind.value}"
            )
        super().__init__(f"{app.name}:qos")
        self.app = app

    def on_tick(self, snapshot: HostSnapshot, host: Host) -> None:
        """Poll the application's QoS report for this tick."""
        report = self.app.qos_report()
        if report is None:
            self._last_report = None
            return
        self._record(snapshot.tick, report)
