"""Host/snapshot views over assembled stream state.

The :class:`~repro.core.controller.StayAway` controller was written
against the simulator's ``Host``/``HostSnapshot`` surface. Rather than
fork the controller for the service, this module rebuilds exactly the
slice of that surface the controller touches, backed by
:class:`~repro.service.assembler.ClosedTick` data:

* :class:`StreamApp` — the application shim (``name`` / ``finished`` /
  ``is_sensitive``); the sensitive one doubles as the controller's
  ``sensitive_app`` identity.
* :class:`ContainerView` — name, lifecycle state (the *real*
  :class:`~repro.sim.container.ContainerState` enum, so
  ``core.action``'s reconciliation comparisons hold), sensitivity and
  the hosted :class:`StreamApp`.
* :class:`HostView` — capacity, the containers dict,
  ``sensitive_containers``/``batch_containers`` and the
  ``pause_container``/``resume_container`` action surface. Actions are
  *optimistic*: the local view flips state immediately (the controller
  reasons over its intended world, exactly as the sim's instant
  signals behave) while the real command travels through the
  acknowledged actuator; the stream's own state records re-assert
  reality on every refresh, except for containers with an in-flight
  command (``pinned``), whose optimistic state wins until the command
  resolves.
* :class:`StreamQosChannel` — the QosTracker-compatible violation
  channel fed from ``qos`` wire records.

Snapshots handed to the controller are genuine
:class:`~repro.sim.host.HostSnapshot` value objects (the established
monitoring<->sim data boundary), so the collector code path is
byte-for-byte the in-process one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.monitoring.qos import QosChannel

# Value types only: the service reads and fabricates the same
# snapshot/state/vector objects the monitoring boundary already
# exchanges with the simulator (baselined, like monitoring.collector).
from repro.sim.container import ContainerError, ContainerState
from repro.sim.host import HostSnapshot
from repro.sim.resources import Resource, ResourceVector

from repro.service.assembler import ClosedTick


@dataclass
class StreamApp:
    """Application shim behind a streamed container.

    The controller only ever asks an application for its ``name``,
    ``finished`` flag and (for the QoS tracker constructor it does not
    use here) ``is_sensitive`` — this is that surface, updated from
    ``state`` wire records.
    """

    name: str
    sensitive: bool = False
    finished: bool = False

    @property
    def is_sensitive(self) -> bool:
        return self.sensitive


@dataclass
class ContainerView:
    """One container as the stream describes it."""

    name: str
    app: StreamApp
    sensitive: bool = False
    state: ContainerState = ContainerState.CREATED

    @property
    def is_running(self) -> bool:
        return self.state is ContainerState.RUNNING

    @property
    def is_paused(self) -> bool:
        return self.state is ContainerState.PAUSED


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

    def __init__(self, name: str = "stream") -> None:
        super().__init__(f"{name}:qos")

    def ingest(self, tick: int, value: float, threshold: float) -> None:
        """Record one streamed QoS report."""
        self._record(tick, _QosView(value=value, threshold=threshold))

    def on_tick(self, snapshot, host) -> None:  # noqa: ARG002 - interface
        """No-op: reports arrive from the stream, not the app object."""


def _capacity_from_header(capacity: Dict[str, float]) -> ResourceVector:
    values = {}
    for metric, value in capacity.items():
        try:
            values[Resource(metric)] = float(value)
        except ValueError:
            continue  # unknown metric family in the stream; ignore
    return ResourceVector.from_mapping(values)


def _state_from_wire(state: str) -> ContainerState:
    try:
        return ContainerState(state)
    except ValueError:
        return ContainerState.RUNNING


class HostView:
    """The controller-facing host, reconstructed from the stream.

    Parameters
    ----------
    header:
        The stream ``header`` record (host name, capacity, container
        kinds, sensitive container name).
    sensitive_app:
        The :class:`StreamApp` standing in for the protected
        application — the *same instance* handed to the controller as
        ``sensitive_app`` so identity-based mode classification works.
    submit:
        Callable ``submit(verb, container)`` the optimistic
        ``pause_container``/``resume_container`` calls forward to —
        the acknowledged-actuation entry point. ``None`` means local
        state only (replay against a recording needs no real actions).
    """

    def __init__(
        self,
        header: dict,
        sensitive_app: StreamApp,
        submit=None,
    ) -> None:
        self.name: str = header.get("host", "host0")
        self.capacity: ResourceVector = _capacity_from_header(
            header.get("capacity", {})
        )
        self._submit = submit
        self._sensitive_app = sensitive_app
        self._sensitive_name: str = header.get("sensitive", "")
        self._sensitive_bound = False
        self.containers: Dict[str, ContainerView] = {}
        for container, kind in sorted(header.get("containers", {}).items()):
            self._admit(container, sensitive=kind == "sensitive")

    def _admit(self, name: str, sensitive: bool) -> ContainerView:
        binds = sensitive and not self._sensitive_bound and (
            name == self._sensitive_name or not self._sensitive_name
        )
        if binds:
            self._sensitive_app.name = name
            self._sensitive_app.sensitive = True
            self._sensitive_bound = True
            app = self._sensitive_app
        else:
            app = StreamApp(name=name, sensitive=sensitive)
        view = ContainerView(name=name, app=app, sensitive=sensitive)
        self.containers[name] = view
        return view

    # -- Host surface the controller touches ----------------------------
    def container(self, name: str) -> ContainerView:
        return self.containers[name]

    def sensitive_containers(self) -> List[ContainerView]:
        return [c for c in self.containers.values() if c.sensitive]

    def batch_containers(self) -> List[ContainerView]:
        return [c for c in self.containers.values() if not c.sensitive]

    def pause_container(self, name: str) -> None:
        view = self.containers[name]
        if view.state is ContainerState.STOPPED:
            raise ContainerError(f"cannot pause stopped container {name!r}")
        already_paused = view.state is ContainerState.PAUSED
        view.state = ContainerState.PAUSED
        if self._submit is not None and not already_paused:
            self._submit("pause", name)

    def resume_container(self, name: str) -> None:
        view = self.containers[name]
        if view.state is ContainerState.STOPPED:
            raise ContainerError(f"cannot resume stopped container {name!r}")
        already_running = view.state is ContainerState.RUNNING
        view.state = ContainerState.RUNNING
        if self._submit is not None and not already_running:
            self._submit("resume", name)

    # -- stream refresh --------------------------------------------------
    def apply(
        self, closed: ClosedTick, pinned: Optional[Set[str]] = None
    ) -> HostSnapshot:
        """Fold one closed tick into the view; return its snapshot.

        ``pinned`` names containers with an in-flight actuator command:
        their locally-intended state is kept (the stream is reporting a
        world from before the command landed); everyone else's state is
        re-asserted from the stream — which is exactly how externally
        resumed containers become visible to ``ThrottleManager``'s
        reconciliation.
        """
        pinned = pinned or set()
        for name, (state, finished, sensitive) in sorted(closed.states.items()):
            view = self.containers.get(name)
            if view is None:
                view = self._admit(name, sensitive=sensitive)
            view.app.finished = bool(finished)
            if name not in pinned:
                view.state = _state_from_wire(state)

        usage: Dict[str, ResourceVector] = {}
        for name in self.containers:
            metrics = closed.usage.get(name)
            if metrics is None:
                usage[name] = ResourceVector.zero()
            else:
                usage[name] = _capacity_from_header(metrics)
        # Containers that streamed usage before any state record.
        for name, metrics in sorted(closed.usage.items()):
            if name not in usage:
                self._admit(name, sensitive=False)
                usage[name] = _capacity_from_header(metrics)

        states = {name: view.state for name, view in self.containers.items()}
        return HostSnapshot(
            tick=closed.tick,
            usage=usage,
            allocations={},
            states=states,
            swap_ratio=1.0,
        )
