"""Unit tests for the analysis helpers."""

import numpy as np
import pytest

from repro.analysis.accuracy import summarize_accuracy
from repro.analysis.reports import ascii_table, render_series, render_timeline_bands
from repro.analysis.utilization import (
    compare_utilization,
    gained_utilization_series,
    utilization_series,
)
from repro.core.prediction import AccuracyRecord
from repro.monitoring.qos import QosTracker
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host
from repro.sim.resources import ResourceVector
from repro.trajectory.modes import ExecutionMode

from tests.conftest import ConstantApp, SensitiveStub


def run_host(with_batch: bool, ticks=10):
    host = Host()
    sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=2.0))
    host.add_container(Container(name="s", app=sensitive, sensitive=True))
    if with_batch:
        host.add_container(
            Container(name="b", app=ConstantApp(name="b",
                      demand_vector=ResourceVector(cpu=1.0)))
        )
    tracker = QosTracker(sensitive)
    result = SimulationEngine(host, [tracker]).run(ticks=ticks)
    return host, tracker, result.snapshots


class TestUtilization:
    def test_utilization_series_values(self):
        host, _, snapshots = run_host(with_batch=False)
        series = utilization_series(snapshots, host.capacity)
        np.testing.assert_allclose(series, 0.5, atol=1e-6)  # 2 of 4 cores

    def test_gained_utilization(self):
        host, _, isolated = run_host(with_batch=False)
        _, _, colocated = run_host(with_batch=True)
        gain = gained_utilization_series(
            utilization_series(colocated, host.capacity),
            utilization_series(isolated, host.capacity),
        )
        np.testing.assert_allclose(gain, 25.0, atol=1e-4)  # +1 core = +25pp

    def test_series_truncated_to_shorter(self):
        gain = gained_utilization_series(np.ones(5), np.zeros(3))
        assert gain.shape == (3,)

    def test_compare_utilization(self):
        host, _, isolated = run_host(with_batch=False)
        _, _, colocated = run_host(with_batch=True)
        comparison = compare_utilization(isolated, colocated, colocated, host.capacity)
        assert comparison.isolated_mean == pytest.approx(0.5, abs=1e-6)
        assert comparison.unmanaged_gain_mean == pytest.approx(25.0, abs=1e-4)
        assert comparison.gain_capture_ratio == pytest.approx(1.0, abs=1e-6)

    def test_gain_capture_zero_when_no_gain(self):
        host, _, isolated = run_host(with_batch=False)
        comparison = compare_utilization(isolated, isolated, isolated, host.capacity)
        assert comparison.gain_capture_ratio == 0.0


class TestAccuracySummary:
    def make_record(self, correct=True, mode=ExecutionMode.COLOCATED):
        return AccuracyRecord(
            tick=0,
            mode=mode,
            predicted_violation=True,
            actual_violation=correct,
            position_error=0.01,
            step_scale=0.05,
        )

    def test_empty(self):
        summary = summarize_accuracy([])
        assert summary.settled == 0
        assert summary.outcome_accuracy == 0.0

    def test_counts(self):
        records = [self.make_record(True), self.make_record(True),
                   self.make_record(False)]
        summary = summarize_accuracy(records)
        assert summary.settled == 3
        assert summary.outcome_accuracy == pytest.approx(2 / 3)
        assert summary.position_accuracy == 1.0

    def test_per_mode_breakdown(self):
        records = [
            self.make_record(True, ExecutionMode.COLOCATED),
            self.make_record(False, ExecutionMode.SENSITIVE_ONLY),
        ]
        summary = summarize_accuracy(records)
        assert summary.per_mode_outcome["colocated"] == 1.0
        assert summary.per_mode_outcome["sensitive-only"] == 0.0
        assert "idle" not in summary.per_mode_outcome


class TestReports:
    def test_ascii_table(self):
        table = ascii_table(["name", "value"], [["a", 1.0], ["bb", 2.5]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]
        assert "2.500" in lines[3]

    def test_ascii_table_validates_row_width(self):
        with pytest.raises(ValueError):
            ascii_table(["one"], [["a", "b"]])

    def test_render_series(self):
        out = render_series(np.linspace(0, 1, 100), width=20)
        assert len(out) == 20
        assert out[0] != out[-1]  # gradient from low to high

    def test_render_series_empty(self):
        assert render_series(np.array([])) == ""

    def test_render_series_constant(self):
        out = render_series(np.ones(10), width=5)
        assert len(set(out)) == 1

    def test_render_timeline_bands(self):
        stress = np.concatenate([np.zeros(10), np.ones(10)])
        throttled = [False] * 10 + [True] * 10
        stress_line, batch_line = render_timeline_bands(stress, throttled, width=10)
        assert len(stress_line) == 10
        assert batch_line[:5] == "#####"
        assert batch_line[-5:] == "....."

    def test_render_timeline_empty(self):
        assert render_timeline_bands(np.array([]), []) == ["", ""]

