"""Application base classes.

Two execution disciplines exist:

* **Work-based** (batch jobs): internal state — phase position,
  completion — advances with the *progress* the host granted. A starved
  or paused batch job simply takes longer, like a real SIGSTOPped
  process.
* **Real-time** (servers): the application must serve whatever load
  arrives each wall-clock tick. Starvation does not stretch its
  lifetime; it degrades its QoS instead (dropped frames, slow
  responses).

Sensitive applications additionally expose a :class:`QosReport` every
tick. Stay-Away "relies on the application to report whenever a QoS
violation happens" (§3.1) — this is that reporting channel.
"""

from __future__ import annotations

import abc
import enum
from typing import List, NamedTuple, Optional

import numpy as np

from repro.sim.clock import SimulationClock
from repro.sim.contention import Allocation
from repro.sim.resources import ResourceVector
from repro.workloads.phases import PhaseSchedule


class ApplicationKind(enum.Enum):
    """The paper's two-class taxonomy (§2.1)."""

    SENSITIVE = "sensitive"
    BATCH = "batch"


class QosReport(NamedTuple):
    """One tick's QoS reading from a sensitive application (immutable).

    Attributes
    ----------
    value:
        Normalized achieved service level (1.0 = full service).
    threshold:
        The minimum acceptable value; below it is a violation.
    violated:
        True when ``value < threshold``.
    """

    value: float
    threshold: float

    @property
    def violated(self) -> bool:
        return self.value < self.threshold


class Application(abc.ABC):
    """Base class for every workload model.

    Parameters
    ----------
    name:
        Application name (also used as default container name).
    kind:
        Sensitive or batch.
    seed:
        Seed for the application's private RNG (demand jitter).
    noise_std:
        Relative standard deviation of multiplicative demand noise.
        Real applications never draw perfectly flat resource curves;
        a few percent of jitter keeps mapped states realistically
        clustered rather than degenerate points.
    """

    def __init__(
        self,
        name: str,
        kind: ApplicationKind,
        seed: int = 0,
        noise_std: float = 0.02,
    ) -> None:
        self.name = name
        self.kind = kind
        self.noise_std = noise_std
        self.rng = np.random.default_rng(seed)
        self.work_done: float = 0.0
        self.elapsed_ticks: int = 0
        self._finished = False

    # -- interface used by the container --------------------------------
    @abc.abstractmethod
    def demand(self, clock: SimulationClock) -> ResourceVector:
        """Resource demand for the upcoming tick."""

    def advance(self, allocation: Allocation, clock: SimulationClock) -> None:
        """Consume one tick's allocation."""
        self.elapsed_ticks += 1
        self.work_done += allocation.progress
        self._on_advance(allocation, clock)

    def _on_advance(self, allocation: Allocation, clock: SimulationClock) -> None:
        """Subclass hook; called from :meth:`advance`."""

    @property
    def finished(self) -> bool:
        """True once the application has no more work (servers: stream ended)."""
        return self._finished

    def _finish(self) -> None:
        self._finished = True

    # -- helpers ---------------------------------------------------------
    def _jitter(self, vector: ResourceVector) -> ResourceVector:
        """Apply multiplicative Gaussian noise to a demand vector."""
        if self.noise_std <= 0:
            return vector
        a, b, c, d, e = self.rng.normal(1.0, self.noise_std, size=5).tolist()
        v, w, x, y, z = vector
        a, b, c, d, e = v * a, w * b, x * c, y * d, z * e
        # ``f if f > 0.0 else 0.0`` is ``max(0.0, f)``, -0.0 and NaN included.
        return ResourceVector(
            a if a > 0.0 else 0.0, b if b > 0.0 else 0.0, c if c > 0.0 else 0.0,
            d if d > 0.0 else 0.0, e if e > 0.0 else 0.0,
        )

    @property
    def is_sensitive(self) -> bool:
        return self.kind is ApplicationKind.SENSITIVE

    def qos_report(self) -> Optional[QosReport]:
        """Latest QoS reading; ``None`` for applications that report none."""
        return None


class PhasedApplication(Application):
    """A batch application driven by a phase schedule.

    Work (and therefore phase position) advances with granted progress.
    The job finishes after ``total_work`` accumulated work ticks.
    """

    def __init__(
        self,
        name: str,
        schedule: PhaseSchedule,
        total_work: Optional[float] = None,
        kind: ApplicationKind = ApplicationKind.BATCH,
        seed: int = 0,
        noise_std: float = 0.02,
    ) -> None:
        super().__init__(name=name, kind=kind, seed=seed, noise_std=noise_std)
        self.schedule = schedule
        self.total_work = total_work
        self.phase_transitions: List[float] = []
        self._last_phase_name: Optional[str] = None

    def current_phase_name(self) -> str:
        """Name of the phase the application is currently in."""
        return self.schedule.phase_at(self.work_done).name

    def base_demand(self, clock: SimulationClock) -> ResourceVector:
        """Demand of the current phase before jitter; subclass hook."""
        return self.schedule.phase_at(self.work_done).demand

    def demand(self, clock: SimulationClock) -> ResourceVector:
        if self._finished:
            return ResourceVector.zero()
        return self._jitter(self.base_demand(clock))

    def _on_advance(self, allocation: Allocation, clock: SimulationClock) -> None:
        phase_name = self.current_phase_name()
        if phase_name != self._last_phase_name:
            if self._last_phase_name is not None:
                self.phase_transitions.append(self.work_done)
            self._last_phase_name = phase_name
        if self.total_work is not None and self.work_done >= self.total_work:
            self._finish()
