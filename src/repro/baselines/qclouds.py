"""Q-Clouds-style weight boosting (comparison baseline, §8).

Q-Clouds [23] "achieves [QoS] by giving unallocated resources to an
application to prevent falling below the QoS requirement. ... If no
headroom is available, it cannot guarantee QoS". We reproduce the
mechanism with cgroup shares on a work-conserving weighted scheduler
(:class:`~repro.sim.contention.WeightedWaterFillModel`): when the
sensitive application's QoS drops, its weight is boosted
multiplicatively; when QoS is comfortably met the weight decays back,
returning the headroom to the batch tenants.

The reproduced failure mode: weights redistribute *schedulable* rate
resources (CPU, bandwidth) but cannot buy a tenant out of memory
overcommit — swap pressure penalizes every memory-resident tenant
regardless of shares — so QoS violations driven by the memory
subsystem persist under Q-Clouds while Stay-Away simply pauses the
culprit.
"""

from __future__ import annotations

from typing import Optional

from repro.monitoring.qos import QosTracker
from repro.sim.host import Host, HostSnapshot
from repro.workloads.base import Application


class QCloudsLike:
    """Feedback controller over the sensitive container's weight.

    Parameters
    ----------
    sensitive_app:
        The QoS-bearing application (its container is identified on the
        first tick by the sensitive flag).
    boost_factor:
        Multiplicative weight increase applied while QoS is below
        target.
    decay_factor:
        Multiplicative decay toward the base weight while QoS is
        comfortably above target.
    max_weight:
        Upper bound on the boost (cgroup shares are bounded in
        practice).
    comfort_margin:
        QoS must exceed ``threshold + comfort_margin`` before the boost
        starts decaying (hysteresis against oscillation).
    """

    def __init__(
        self,
        sensitive_app: Application,
        boost_factor: float = 2.0,
        decay_factor: float = 0.8,
        max_weight: float = 1024.0,
        comfort_margin: float = 0.02,
    ) -> None:
        if boost_factor <= 1.0:
            raise ValueError("boost_factor must exceed 1")
        if not 0.0 < decay_factor < 1.0:
            raise ValueError("decay_factor must be in (0, 1)")
        if max_weight < 1.0:
            raise ValueError("max_weight must be >= 1")
        self.qos = QosTracker(sensitive_app)
        self.boost_factor = boost_factor
        self.decay_factor = decay_factor
        self.max_weight = max_weight
        self.comfort_margin = comfort_margin
        self.boosts = 0
        self.decays = 0
        self._sensitive_name: Optional[str] = None

    def on_tick(self, snapshot: HostSnapshot, host: Host) -> None:
        """Adjust the sensitive container's weight from this tick's QoS."""
        self.qos.on_tick(snapshot, host)
        if self._sensitive_name is None:
            sensitive = host.sensitive_containers()
            if not sensitive:
                return
            self._sensitive_name = sensitive[0].name
        container = host.container(self._sensitive_name)
        report = self.qos.last_report
        if report is None:
            return
        if report.value < report.threshold:
            new_weight = min(container.weight * self.boost_factor, self.max_weight)
            if new_weight != container.weight:
                container.set_weight(new_weight)
                self.boosts += 1
        elif report.value > report.threshold + self.comfort_margin:
            if container.weight > 1.0:
                new_weight = max(1.0, container.weight * self.decay_factor)
                container.set_weight(new_weight)
                self.decays += 1
