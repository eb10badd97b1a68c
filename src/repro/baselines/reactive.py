"""Reactive-only throttling (ablation).

Throttles batch containers when a QoS violation is *observed* and
resumes after a fixed cooldown. No mapping, no prediction, no learned
resume threshold. Comparing this against Stay-Away isolates the value
of (a) predicting violations before they happen and (b) the
phase-change-aware resume policy.
"""

from __future__ import annotations

from typing import List, Optional

from repro.monitoring.qos import QosTracker
from repro.sim.host import Host, HostSnapshot
from repro.workloads.base import Application


class ReactiveThrottler:
    """Violation-triggered pause with fixed-cooldown resume.

    Parameters
    ----------
    sensitive_app:
        The application whose QoS reports trigger throttling.
    cooldown:
        Ticks to keep batch containers paused after a violation.
    """

    def __init__(self, sensitive_app: Application, cooldown: int = 20) -> None:
        if cooldown < 1:
            raise ValueError("cooldown must be >= 1")
        self.qos = QosTracker(sensitive_app)
        self.cooldown = cooldown
        self.throttle_count = 0
        self.resume_count = 0
        self._paused: List[str] = []
        self._paused_since: Optional[int] = None

    def on_tick(self, snapshot: HostSnapshot, host: Host) -> None:
        """React to this tick's QoS report."""
        self.qos.on_tick(snapshot, host)

        if self._paused:
            still_paused = [
                name
                for name in self._paused
                if name in host.containers and host.container(name).is_paused
            ]
            if not still_paused:
                self._paused = []
                self._paused_since = None
            elif self.qos.violation_now:
                # A fresh violation mid-cooldown re-arms the clock:
                # resuming on the original schedule would drop the batch
                # straight back into an ongoing contention storm.
                self._paused_since = snapshot.tick
            elif (
                self._paused_since is not None
                and snapshot.tick - self._paused_since >= self.cooldown
            ):
                for name in still_paused:
                    host.resume(name)
                self.resume_count += 1
                self._paused = []
                self._paused_since = None
            return

        if not self.qos.violation_now:
            return
        targets = [
            container.name
            for container in host.batch_containers()
            if container.is_running and not container.app.finished
        ]
        if not targets:
            return
        for name in targets:
            host.pause(name)
        self._paused = targets
        self._paused_since = snapshot.tick
        self.throttle_count += 1
