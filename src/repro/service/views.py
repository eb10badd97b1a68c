"""The stream's side of the controller's port.

:class:`~repro.core.controller.StayAway` reads one
:class:`~repro.observation.Observation` a tick and writes pause /
resume (see :mod:`repro.observation`). Over a stream:

* :class:`HostView` folds each
  :class:`~repro.service.assembler.ClosedTick` into that Observation
  (a container with a command in flight reads what the command
  intends) and forwards ``pause`` / ``resume`` to the acknowledged
  actuator.
* :class:`StreamQosChannel` — the QosTracker-compatible violation
  channel fed from ``qos`` wire records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

from repro.monitoring.qos import QosChannel
from repro.observation import (
    CREATED,
    LIFECYCLE,
    METRICS,
    PAUSED,
    RUNNING,
    ZERO_USAGE,
    ContainerRow,
    Observation,
)

from repro.service.assembler import ClosedTick


@dataclass(frozen=True)
class _QosView:
    """A QoS report as streamed (mirrors ``workloads.base.QosReport``)."""

    value: float
    threshold: float

    @property
    def violated(self) -> bool:
        return self.value < self.threshold


class StreamQosChannel(QosChannel):
    """QosTracker-compatible violation channel fed from ``qos`` records.

    Passed to the controller as ``violation_detector=``; the service
    calls :meth:`ingest` for each closed tick that carried a QoS
    record, and the controller's ``qos.on_tick`` becomes a no-op (the
    stream, not the application object, is the reporting path).
    """

    def __init__(self) -> None:
        super().__init__("stream:qos")

    def ingest(self, tick: int, value: float, threshold: float) -> None:
        """Record one streamed QoS report."""
        self._record(tick, _QosView(value=value, threshold=threshold))

    def on_tick(self, snapshot, host) -> None:  # noqa: ARG002 - interface
        """No-op: reports arrive from the stream, not the app object."""


class HostView:
    """The controller-facing host, folded from the stream.

    Parameters
    ----------
    header:
        The stream ``header`` record (capacity, container kinds,
        sensitive container name), as the assembler adopted it.
    sensitive_app:
        The identity the controller was given as ``sensitive_app``; the
        protected container's row carries it as ``app`` so
        identity-based mode classification works.
    submit:
        Callable ``submit(verb, container)`` that ``pause`` / ``resume``
        forward to — the acknowledged-actuation entry point.
    """

    def __init__(
        self,
        header: dict,
        sensitive_app: object,
        submit: Callable[[str, str], object],
    ) -> None:
        self.capacity = tuple(float(header["capacity"][m]) for m in METRICS)
        self._submit = submit
        self._unbound_app: Optional[object] = sensitive_app
        self._sensitive_name: str = header.get("sensitive", "")
        #: Admission order -> the container's row as the stream last
        #: described it (usage is filled in per tick).
        self._held: Dict[str, ContainerRow] = {}
        for container, kind in sorted(header.get("containers", {}).items()):
            self._admit(container, sensitive=kind == "sensitive")

    def _admit(self, name: str, sensitive: bool) -> ContainerRow:
        app = None
        if sensitive and self._sensitive_name in ("", name):
            app, self._unbound_app = self._unbound_app, None
        row = ContainerRow(name, ZERO_USAGE, CREATED, False, sensitive, app)
        self._held[name] = row
        return row

    # -- the controller's port -------------------------------------------
    def observe(self, reading: Observation) -> Observation:
        """The service's reading of a tick *is* what :meth:`apply` folded."""
        return reading

    def pause(self, name: str) -> bool:
        self._submit("pause", name)
        return True

    def resume(self, name: str) -> bool:
        self._submit("resume", name)
        return True

    # -- stream refresh --------------------------------------------------
    def apply(self, closed: ClosedTick, pinned: Mapping[str, str]) -> Observation:
        """Fold one closed tick into the view; return its Observation.

        ``pinned`` maps containers with an in-flight actuator command
        to its verb (``AckTracker.pending_containers()``): they read
        the state that verb intends — the controller reasons over its
        intended world, exactly as the sim's instant signals behave,
        while the stream still reports the world from before the
        command landed. Everyone else reads the state the stream last
        reported, so once a command is acked or dead-lettered the
        stream re-asserts reality — which is how externally resumed
        containers become visible to ``ThrottleManager``'s
        reconciliation. A state string this build does not know reads
        as running, a metric family it does not know is ignored.
        """
        held = self._held
        for name, (state, finished, sensitive) in sorted(closed.states.items()):
            row = held.get(name) or self._admit(name, sensitive=sensitive)
            held[name] = row._replace(
                state=state if state in LIFECYCLE else RUNNING,
                finished=bool(finished),
            )
        # Containers that streamed usage before any state record.
        for name in sorted(closed.usage.keys() - held.keys()):
            self._admit(name, sensitive=False)

        rows = []
        for name, row in held.items():
            metrics = closed.usage.get(name)
            if metrics is not None:
                row = row._replace(
                    usage=tuple(float(metrics.get(m, 0.0)) for m in METRICS)
                )
            verb = pinned.get(name)
            if verb is not None:
                row = row._replace(state=PAUSED if verb == "pause" else RUNNING)
            rows.append(row)
        return Observation(closed.tick, self.capacity, tuple(rows))
