"""Multiple sensitive applications with priorities (§2.1).

The paper's constraint is that "either best-effort batch applications
are scheduled with latency sensitive applications or multiple sensitive
applications are scheduled with the notion of priorities. ... if
multiple sensitive applications are co-scheduled Stay-Away can choose
to migrate or scale resources of the lower priority sensitive
application."

:class:`PrioritizedStayAway` implements that scheme with the throttling
action: one Stay-Away controller protects each sensitive application,
and when the controller of a *higher*-priority application needs to
act, its throttle targets include both the batch containers and every
*lower*-priority sensitive container. The lowest-priority application
is therefore best-effort relative to all others, exactly mirroring the
two-class case recursively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.observation import RUNNING, Observation

if TYPE_CHECKING:
    from repro.sim.host import Host, HostSnapshot
    from repro.workloads.base import Application


@dataclass(frozen=True)
class PrioritizedApp:
    """One sensitive application with its priority (higher = stricter QoS)."""

    app: Application
    priority: int

    def __post_init__(self) -> None:
        if not self.app.is_sensitive:
            raise ValueError(
                f"{self.app.name!r} is not a sensitive application"
            )


class PrioritizedStayAway:
    """A coordinator of per-application Stay-Away controllers.

    Parameters
    ----------
    apps:
        ``(application, priority)`` pairs; priorities must be unique so
        the demotion order is total.
    config:
        Shared configuration template; each controller gets its own
        seeded copy (seed offset by its rank) so their RNG streams do
        not collide.
    """

    def __init__(
        self,
        apps: Sequence[Tuple[Application, int]],
        config: Optional[StayAwayConfig] = None,
    ) -> None:
        if not apps:
            raise ValueError("need at least one sensitive application")
        priorities = [priority for _, priority in apps]
        if len(set(priorities)) != len(priorities):
            raise ValueError(f"priorities must be unique, got {priorities}")
        base_config = config if config is not None else StayAwayConfig()

        self.entries: List[PrioritizedApp] = sorted(
            (PrioritizedApp(app=app, priority=priority) for app, priority in apps),
            key=lambda entry: -entry.priority,
        )
        self.controllers: Dict[str, StayAway] = {}
        for rank, entry in enumerate(self.entries):
            controller_config = StayAwayConfig(
                **{**base_config.__dict__, "seed": base_config.seed + rank}
            )
            selector = self._make_selector(entry.priority)
            self.controllers[entry.app.name] = StayAway(
                entry.app,
                config=controller_config,
                throttle_target_selector=selector,
            )

    def _make_selector(self, protected_priority: int):
        """Throttle targets for a controller protecting one priority level."""

        def selector(observation: Observation) -> List[str]:
            targets: List[str] = []
            for row in observation.rows:
                if row.state != RUNNING or row.finished:
                    continue
                if not row.sensitive:
                    targets.append(row.name)
                    continue
                victim_priority = next(
                    (e.priority for e in self.entries if e.app is row.app), None
                )
                if (
                    victim_priority is not None
                    and victim_priority < protected_priority
                ):
                    targets.append(row.name)
            return targets

        return selector

    def controller_for(self, app_name: str) -> StayAway:
        """The controller protecting one application."""
        return self.controllers[app_name]

    def on_tick(self, snapshot: HostSnapshot, host: Host) -> None:
        """Run every controller, highest priority first.

        Priority order matters: a high-priority controller's throttle
        this period removes its victims from lower-priority
        controllers' views immediately.
        """
        for entry in self.entries:
            self.controllers[entry.app.name].on_tick(snapshot, host)

    def summary(self) -> Dict[str, dict]:
        """Per-application controller summaries."""
        return {
            name: controller.summary()
            for name, controller in self.controllers.items()
        }
