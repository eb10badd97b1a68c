"""The stream's side of the controller's port.

:class:`~repro.core.controller.StayAway` reads one
:class:`~repro.observation.Observation` a tick and writes pause /
resume (see :mod:`repro.observation`). Over a stream:

* :class:`HostView` turns each
  :class:`~repro.service.assembler.ClosedTick` into that Observation —
  the assembler already holds the container table and emits the rows;
  the view binds the protected container's row to the controller's
  ``sensitive_app``, overlays the commands still in flight (such a
  container reads what the command intends) and stamps the capacity —
  and forwards ``pause`` / ``resume`` to the acknowledged actuator.
* :class:`StreamQosChannel` — the QosTracker-compatible violation
  channel fed from ``qos`` wire records.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from repro.monitoring.qos import QosChannel
from repro.observation import METRICS, PAUSED, RUNNING, ContainerRow, Observation

from repro.service.assembler import ClosedTick


class _QosView(NamedTuple):
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
        self._record(tick, _QosView(value, threshold))

    def on_tick(self, snapshot, host) -> None:  # noqa: ARG002 - interface
        """No-op: reports arrive from the stream, not the app object."""


class HostView:
    """The controller-facing host over the stream.

    Parameters
    ----------
    header:
        The stream ``header`` record (capacity, sensitive container
        name), as the assembler adopted it.
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
        self._sensitive_app = sensitive_app
        #: The protected container; with none named, the first
        #: sensitive row the stream admits.
        self._sensitive_name: str = header.get("sensitive", "")

    # -- the controller's port -------------------------------------------
    def observe(self, reading: Observation) -> Observation:
        """The service's reading of a tick *is* what :meth:`apply` built."""
        return reading

    def pause(self, name: str) -> bool:
        self._submit("pause", name)
        return True

    def resume(self, name: str) -> bool:
        self._submit("resume", name)
        return True

    # -- stream refresh --------------------------------------------------
    def apply(self, closed: ClosedTick, pinned: Mapping[str, str]) -> Observation:
        """One closed tick as the controller's Observation.

        ``pinned`` maps containers with an in-flight actuator command
        to its verb (``AckTracker.pending_containers()``): they read
        the state that verb intends — the controller reasons over its
        intended world, exactly as the sim's instant signals behave,
        while the stream still reports the world from before the
        command landed. Everyone else reads the state the stream last
        reported, so once a command is acked or dead-lettered the
        stream re-asserts reality — which is how externally resumed
        containers become visible to ``ThrottleManager``'s
        reconciliation.
        """
        rows = []
        for row in closed.rows:
            name, usage, state, finished, sensitive, app = row
            verb = pinned.get(name) if pinned else None
            if sensitive and self._sensitive_name in ("", name):
                self._sensitive_name = name
                app = self._sensitive_app
            elif verb is None:
                rows.append(row)  # nothing to bind or overlay
                continue
            if verb is not None:
                state = PAUSED if verb == "pause" else RUNNING
            rows.append(ContainerRow(name, usage, state, finished, sensitive, app))
        return Observation(closed.tick, self.capacity, tuple(rows))
