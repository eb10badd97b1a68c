"""Unit tests for phase schedules."""

import pytest

from repro.sim.resources import ResourceVector
from repro.workloads.phases import Phase, PhaseSchedule


def make_phase(name, duration, cpu=1.0):
    return Phase(name=name, duration=duration, demand=ResourceVector(cpu=cpu))


class TestPhase:
    def test_positive_duration_required(self):
        with pytest.raises(ValueError):
            make_phase("bad", 0.0)
        with pytest.raises(ValueError):
            make_phase("bad", -1.0)


class TestPhaseSchedule:
    def test_needs_phases(self):
        with pytest.raises(ValueError):
            PhaseSchedule([])

    def test_phase_at_within_first(self):
        schedule = PhaseSchedule([make_phase("a", 10), make_phase("b", 5)])
        assert schedule.phase_at(0.0).name == "a"
        assert schedule.phase_at(9.99).name == "a"

    def test_phase_at_boundary_moves_to_next(self):
        schedule = PhaseSchedule([make_phase("a", 10), make_phase("b", 5)])
        assert schedule.phase_at(10.0).name == "b"

    def test_cyclic_wraps(self):
        schedule = PhaseSchedule([make_phase("a", 10), make_phase("b", 5)], cyclic=True)
        assert schedule.phase_at(15.0).name == "a"
        assert schedule.phase_at(26.0).name == "b"

    def test_non_cyclic_sticks_to_last(self):
        schedule = PhaseSchedule(
            [make_phase("a", 10), make_phase("b", 5)], cyclic=False
        )
        assert schedule.phase_at(100.0).name == "b"

    def test_negative_position_rejected(self):
        schedule = PhaseSchedule([make_phase("a", 10)])
        with pytest.raises(ValueError):
            schedule.phase_at(-0.1)

    def test_single_endless_phase(self):
        schedule = PhaseSchedule.single("spin", ResourceVector(cpu=4.0))
        assert schedule.phase_at(1e9).name == "spin"
        assert schedule.phase_at(1e9).demand.cpu == 4.0
