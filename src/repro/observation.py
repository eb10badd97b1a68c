"""What a Stay-Away period reads: one :class:`Observation`.

A period needs a per-container usage vector, each container's lifecycle
state and the host's capacity (PAPER.md §1), and writes SIGSTOP /
SIGCONT. This leaf module — it imports nothing from ``repro``, so every
layer may import it — holds that input as a value. The port a controller
is driven through is three methods, implemented by the simulator's
:class:`~repro.sim.host.Host` and the stream's
:class:`~repro.service.views.HostView`: ``observe(reading) ->
Observation``, and ``pause(name) -> bool`` / ``resume(name) -> bool``,
whose answer is "the container is in that state now".
"""

from __future__ import annotations

from typing import Collection, Dict, NamedTuple, Tuple

#: Metric order of every usage and capacity tuple (the wire's names).
METRICS: Tuple[str, ...] = ("cpu", "memory", "memory_bw", "disk_io", "network")
ZERO_USAGE: Tuple[float, ...] = (0.0, 0.0, 0.0, 0.0, 0.0)

#: Lifecycle states, spelled as ``lxc-info`` and the wire spell them.
LIFECYCLE = CREATED, RUNNING, PAUSED, STOPPED = "created", "running", "paused", "stopped"


class ContainerRow(NamedTuple):
    """One container as a period sees it."""

    name: str
    #: Resources consumed this tick, in :data:`METRICS` order.
    usage: Tuple[float, ...]
    #: :data:`CREATED`, :data:`RUNNING`, :data:`PAUSED` or :data:`STOPPED`.
    state: str
    #: The hosted application has completed all its work.
    finished: bool
    sensitive: bool
    #: Opaque identity of the hosted application: a controller finds the
    #: container it protects by ``row.app is sensitive_app``.
    app: object = None


class Observation(NamedTuple):
    """One tick of one host: capacity (in :data:`METRICS` order) and a
    row per admitted container."""

    tick: int
    capacity: Tuple[float, ...]
    rows: Tuple[ContainerRow, ...]

    def states(self) -> Dict[str, str]:
        """``{container name: lifecycle state}``."""
        return {row.name: row.state for row in self.rows}

    def with_state(self, names: Collection[str], state: str) -> "Observation":
        """This observation with ``names`` read in ``state``: how a signal
        that landed mid-period stays visible to the rest of the period
        without observing again (a stream would still answer with the
        state from before the command)."""
        if not names:
            return self
        rows = (r._replace(state=state) if r.name in names else r for r in self.rows)
        return self._replace(rows=tuple(rows))
