"""Unit tests for the chaos fault layer and scripted-fault additions."""

import ast
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.sim.container import Container, ContainerState
from repro.sim.engine import SimulationEngine
from repro.sim.faults import (
    ContainerFlapper,
    DemandSpiker,
    FaultyPort,
    QosDropout,
    StageExceptionInjector,
)
from repro.sim.host import Host
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp, SensitiveStub
from tests.support.scripted_faults import FaultSchedule

SRC = Path(__file__).resolve().parents[2] / "src"


def simple_host():
    host = Host()
    app = ConstantApp(name="job", demand_vector=ResourceVector(cpu=1.0))
    host.add_container(Container(name="job", app=app))
    return host, app


class TestFaultScheduleRestart:
    def test_restart_revives_killed_container(self):
        host, app = simple_host()
        faults = FaultSchedule().kill(2, "job").restart(5, "job")
        SimulationEngine(host, [faults]).run(ticks=8)
        assert host.container("job").state is ContainerState.RUNNING
        assert [event.kind for event in faults.fired] == ["kill", "restart"]
        # Dead during ticks 3-5, working again after the restart.
        assert app.work_done == pytest.approx(8 - 3)

    def test_restart_of_running_container_is_noop(self):
        host, _ = simple_host()
        faults = FaultSchedule().restart(3, "job")
        SimulationEngine(host, [faults]).run(ticks=6)
        assert faults.fired == []

    def test_restart_revives_externally_paused_container(self):
        host, _ = simple_host()
        faults = FaultSchedule().pause(2, "job").restart(4, "job")
        SimulationEngine(host, [faults]).run(ticks=6)
        assert host.container("job").state is ContainerState.RUNNING


class TestDemandSpikerRobustness:
    def test_overlapping_windows_rejected(self):
        _, app = simple_host()
        with pytest.raises(ValueError, match="overlapping"):
            DemandSpiker(app, windows=[(5, 15), (10, 20)])

    def test_unsorted_non_overlapping_windows_accepted(self):
        _, app = simple_host()
        spiker = DemandSpiker(app, windows=[(20, 30), (5, 10)])
        assert spiker.active(7)
        assert not spiker.active(15)
        spiker.remove()

    def test_remove_is_idempotent(self):
        host, app = simple_host()
        original = app.demand
        spiker = DemandSpiker(app, windows=[(2, 4)])
        spiker.remove()
        spiker.remove()  # must not raise or re-wrap
        assert app.demand == original


class TestFaultyPort:
    class Recorder:
        """Reads the host through whatever port it is handed."""

        def __init__(self, pause_at=None):
            self.observations = []
            self.pause_at = pause_at
            self.answers = []

        def on_tick(self, snapshot, host):
            self.observations.append(host.observe(snapshot))
            if snapshot.tick == self.pause_at:
                self.answers.append(host.pause("job"))

    @staticmethod
    def _values(observations):
        return [v for obs in observations for row in obs.rows for v in row.usage]

    def test_inner_sees_corrupted_values_host_untouched(self):
        host, _ = simple_host()
        recorder = self.Recorder()
        port = FaultyPort(recorder, seed=3, sensor_corruption=1.0, signal_loss=0.0)
        result = SimulationEngine(host, [port]).run(ticks=20)
        assert len(port.corruptions) > 0
        # The host's own readings stay finite and non-negative...
        truth = [host.observe(snapshot) for snapshot in result.snapshots]
        assert all(np.isfinite(v) and v >= 0 for v in self._values(truth))
        # ...while the recorder observed at least one corrupted value.
        observed = self._values(recorder.observations)
        assert any(not np.isfinite(v) or v < 0 or v > 1e5 for v in observed)
        # A freeze replays the previous tick's true usage.
        freezes = [e.tick for e in port.corruptions if e.kind == "sensor-freeze"]
        assert freezes
        for tick in freezes:
            assert recorder.observations[tick].rows == truth[tick - 1].rows

    def test_zero_probability_never_corrupts(self):
        host, _ = simple_host()
        port = FaultyPort(self.Recorder(), seed=3, sensor_corruption=0.0)
        SimulationEngine(host, [port]).run(ticks=20)
        assert port.corruptions == []

    def test_seeded_reproducibility(self):
        ticks = []
        for _ in range(2):
            host, _ = simple_host()
            port = FaultyPort(self.Recorder(), seed=7, sensor_corruption=0.3)
            SimulationEngine(host, [port]).run(ticks=30)
            ticks.append([e.tick for e in port.corruptions])
        assert ticks[0] == ticks[1]

    def test_lost_signals_recorded(self):
        host, _ = simple_host()
        recorder = self.Recorder(pause_at=1)
        port = FaultyPort(recorder, seed=1, sensor_corruption=0.0, signal_loss=1.0)
        engine = SimulationEngine(host, [port])
        engine.run(ticks=2)
        assert recorder.answers == [False]
        assert host.container("job").is_running  # the signal never arrived
        assert [(e.tick, e.kind, e.target) for e in port.lost_signals] == [
            (1, "lost-pause", "job")
        ]
        port.signal_loss = 0.0
        recorder.pause_at = 2
        engine.run(ticks=1)
        assert recorder.answers == [False, True]
        assert host.container("job").is_paused  # reliable again

    @pytest.mark.parametrize("knob", ["sensor_corruption", "signal_loss"])
    def test_probability_outside_unit_interval_rejected(self, knob):
        with pytest.raises(ValueError, match=knob):
            FaultyPort(self.Recorder(), **{knob: 1.5})


class TestQosDropout:
    def test_probabilistic_dropout_swallows_reports(self):
        sensitive = SensitiveStub()
        host = Host()
        host.add_container(Container(name="s", app=sensitive, sensitive=True))
        dropout = QosDropout(sensitive, probability=1.0, seed=1)
        SimulationEngine(host, []).run(ticks=5)
        assert sensitive.qos_report() is None
        assert dropout.dropped_reports > 0
        dropout.remove()
        assert sensitive.qos_report() is not None


class TestContainerFlapper:
    def test_flapper_toggles_and_records(self):
        host, _ = simple_host()
        flapper = ContainerFlapper(["job"], seed=2, flap_probability=0.5)
        SimulationEngine(host, [flapper]).run(ticks=40)
        kinds = {event.kind for event in flapper.fired}
        assert "pause" in kinds
        assert "resume" in kinds

    def test_flap_then_restart_cycle(self):
        host, _ = simple_host()
        flapper = ContainerFlapper(
            ["job"], seed=2, flap_probability=0.3, restart_probability=0.5
        )
        SimulationEngine(host, [flapper]).run(ticks=40)
        kinds = [event.kind for event in flapper.fired]
        assert "pause" in kinds
        assert "restart" in kinds
        # Only a flap stops the job, so each restart revives a paused one.
        assert all(kinds[i - 1] == "pause" for i, kind in enumerate(kinds) if kind == "restart")

    def test_missing_target_ignored(self):
        host, _ = simple_host()
        flapper = ContainerFlapper(["ghost"], seed=2, flap_probability=1.0)
        SimulationEngine(host, [flapper]).run(ticks=5)  # must not raise
        assert flapper.fired == []


class TestOneFaultScript:
    """Two arms with one seed see one fault script: a decision depends on
    what is decided and when, never on the calls made before it."""

    class Signaller:
        """Sends the signals ``plan(tick)`` names through its port."""

        def __init__(self, plan):
            self.plan = plan
            self.answers = {}

        def on_tick(self, reading, port):
            for verb, name in self.plan(reading.tick):
                self.answers[(reading.tick, verb, name)] = getattr(port, verb)(name)

    def test_ports_agree_on_every_signal_both_send(self):
        actuator = SimpleNamespace(pause=lambda name: True, resume=lambda name: True)
        signals = [("pause", "a"), ("resume", "b"), ("pause", "c")]
        busy = self.Signaller(lambda tick: signals[: 1 + tick % 3])
        sparse = self.Signaller(
            lambda tick: [("pause", "c"), ("resume", "b")] if tick % 2 else [("pause", "a")]
        )
        for inner in (busy, sparse):
            port = FaultyPort(inner, seed=5, sensor_corruption=0.0, signal_loss=0.5)
            for tick in range(200):
                port.on_tick(SimpleNamespace(tick=tick), actuator)
        shared = busy.answers.keys() & sparse.answers.keys()
        assert len(shared) > 100
        assert {busy.answers[key] for key in shared} == {True, False}
        assert all(busy.answers[key] == sparse.answers[key] for key in shared)

    def test_flappers_agree_on_a_container_whatever_the_others_do(self):
        runs = []
        for stop_first in (False, True):
            host = Host()
            for name in ("a", "b"):
                app = ConstantApp(name=name, demand_vector=ResourceVector(cpu=1.0))
                host.add_container(Container(name=name, app=app))
            host.step()
            if stop_first:
                host.container("a").stop()
            flapper = ContainerFlapper(
                ["a", "b"], seed=4, flap_probability=0.2, restart_probability=0.2
            )
            SimulationEngine(host, [flapper]).run(ticks=200)
            runs.append(flapper.fired)
        first, second = (
            [(e.tick, e.kind) for e in fired if e.target == "b"] for fired in runs
        )
        assert len(first) > 10 and first == second
        # The two hosts' "a" did differ.
        assert [e for e in runs[0] if e.target == "a"] != [
            e for e in runs[1] if e.target == "a"
        ]


class TestStageExceptionInjector:
    def test_remove_leaves_no_instance_attributes(self):
        controller = StayAway(SensitiveStub(), config=StayAwayConfig(telemetry=False))
        injector = StageExceptionInjector(controller, probability=1.0).install()
        assert {name for name in vars(controller) if name.startswith("_stage_")}
        injector.remove()
        injector.remove()  # idempotent
        assert not [name for name in vars(controller) if name.startswith("_stage_")]
        # A class-level patch reaches the controller again.
        assert controller._stage_map.__func__ is StayAway._stage_map


#: Where a ``# type: ignore[method-assign]`` may stay: the two world-level
#: overrides whose target (``app.demand``, ``app.qos_report``) is not on
#: the controller's port yet.
REBINDING_CLASSES = {"DemandSpiker": 2, "QosDropout": 2}


def test_method_rebinding_stays_in_demand_spiker_and_qos_dropout():
    """A fault that rebinds a method is a fault around the port. Faults
    on what a controller reads and signals belong in ``FaultyPort``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        lines = [
            number
            for number, line in enumerate(text.splitlines(), start=1)
            if re.search(r"#\s*type:\s*ignore\[method-assign\]", line)
        ]
        if not lines:
            continue
        classes = [
            node for node in ast.walk(ast.parse(text)) if isinstance(node, ast.ClassDef)
        ]
        for number in lines:
            owner = next(
                (c.name for c in classes if c.lineno <= number <= c.end_lineno),
                None,
            )
            where = f"{path.relative_to(SRC)}:{number}"
            assert owner in REBINDING_CLASSES, (
                f"{where} rebinds a method; put the fault on the controller's "
                "port (repro.sim.faults.FaultyPort) instead"
            )
            found[owner] = found.get(owner, 0) + 1
    assert found == REBINDING_CLASSES


def test_fault_draws_hold_no_rng_state():
    """Every chaos decision in ``sim/faults.py`` is one keyed
    ``_fault_uniform`` draw: the module imports no RNG and builds none."""
    text = (SRC / "repro" / "sim" / "faults.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert not imported & {"numpy", "random"}
    assert "default_rng" not in text


#: Modules whose counts live in the controller's registry unconditionally.
COUNTING_MODULES = (
    "state_space.py",
    "mapping.py",
    "prediction.py",
    "model_health.py",
    "resilience.py",
)


def _names_telemetry(node) -> bool:
    """``telemetry`` / ``self.telemetry`` / ``self._telemetry`` / ``self._counters``."""
    if isinstance(node, ast.Name):
        return node.id == "telemetry"
    return isinstance(node, ast.Attribute) and node.attr in (
        "telemetry",
        "_telemetry",
        "_counters",
    )


def test_counts_take_no_telemetry_branch():
    """Only a constructor may ask whether telemetry was given; every
    other method counts into the registry unconditionally, and the MDS
    kernels know nothing of telemetry."""
    branches = []
    for name in COUNTING_MODULES:
        path = SRC / "repro" / "core" / name
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if function.name == "__init__":
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left, *node.comparators]
                if any(_names_telemetry(o) for o in operands) and any(
                    isinstance(o, ast.Constant) and o.value is None for o in operands
                ):
                    branches.append(f"{name}:{node.lineno} ({function.name})")
    assert branches == []
    mentions = [
        path.name
        for path in sorted((SRC / "repro" / "mds").glob("*.py"))
        if "telemetry" in path.read_text().lower()
    ]
    assert mentions == []
