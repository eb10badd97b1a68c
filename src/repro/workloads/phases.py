"""Phase schedules.

The paper defines a *phase change* as "a change in the major share of
resource consumed by an application" (§1) — e.g. an application that is
CPU-intensive for a while and I/O-intensive later. Stay-Away exploits
phase changes of batch applications (throttle only in the harmful
phase) and detects phase changes of the sensitive application (to
decide when resuming a batch app is safe).

A :class:`PhaseSchedule` is an ordered list of :class:`Phase` entries,
optionally cyclic. Phase position advances with *work done* rather than
wall-clock time: a SIGSTOPped or CPU-starved application progresses
through its phases more slowly, exactly as a real program would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.sim.resources import ResourceVector


@dataclass(frozen=True)
class Phase:
    """One demand regime of an application.

    Parameters
    ----------
    name:
        Human-readable phase label ("cpu", "memory-scan", ...).
    duration:
        Phase length in ticks of *useful work* (at full progress the
        phase lasts exactly this many ticks).
    demand:
        Resource demand per tick while in this phase.
    """

    name: str
    duration: float
    demand: ResourceVector

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"phase {self.name!r} must have positive duration")


class PhaseSchedule:
    """An ordered, optionally cyclic, sequence of phases.

    Position within the schedule is measured in accumulated work ticks.
    """

    def __init__(self, phases: Sequence[Phase], cyclic: bool = True) -> None:
        if not phases:
            raise ValueError("a schedule needs at least one phase")
        self.phases: List[Phase] = list(phases)
        self.cyclic = cyclic
        self._total = sum(phase.duration for phase in self.phases)

    def phase_at(self, position: float) -> Phase:
        """The phase active at the given work position.

        For non-cyclic schedules positions past the end stay in the
        final phase (the application is expected to finish around then).
        """
        if position < 0:
            raise ValueError(f"position must be non-negative, got {position}")
        if self.cyclic:
            position = position % self._total
        elif position >= self._total:
            return self.phases[-1]
        cumulative = 0.0
        for phase in self.phases:
            cumulative += phase.duration
            if position < cumulative:
                return phase
        return self.phases[-1]

    @classmethod
    def single(cls, name: str, demand: ResourceVector) -> "PhaseSchedule":
        """A schedule consisting of one endless phase."""
        return cls([Phase(name=name, duration=float("inf"), demand=demand)], cyclic=False)
