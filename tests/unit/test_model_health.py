"""Model-health watchdog decisions (core/model_health.py)."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.events import EventKind
from repro.core import state_space as state_space_module
from repro.core.model_health import (
    MIN_STATES_FOR_STRESS,
    STRESS_DIVERGENCE,
    ModelHealthWatchdog,
)
from repro.experiments.chaos import ContainmentMix, run_recovery_drill
from repro.experiments.scenarios import Scenario
from repro.mds.stress import normalized_stress
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.faults import ModelPoisoner
from repro.sim.host import Host
from repro.sim.resources import ResourceVector
from repro.trajectory.modes import ExecutionMode

from tests.conftest import ConstantApp, SensitiveStub


def learned_controller(ticks=80, seed=9):
    """A controller with learned state and its built-in watchdog off —
    each test drives its own :func:`fresh_watchdog` in isolation."""
    host = Host()
    sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=3.0, memory=500.0))
    bomb = ConstantApp(name="bomb", demand_vector=ResourceVector(cpu=4.0, memory=64.0))
    host.add_container(Container(name="sens", app=sensitive, sensitive=True))
    host.add_container(Container(name="bomb", app=bomb, start_tick=5))
    controller = StayAway(sensitive, config=StayAwayConfig(seed=seed))
    controller.watchdog = None
    engine = SimulationEngine(host, [controller])
    engine.run(ticks=ticks)
    return controller


def fresh_watchdog(controller):
    """A watchdog with its own event log view."""
    return ModelHealthWatchdog(
        controller.config, controller.events, telemetry=controller.telemetry
    )


class TestInspect:
    def test_clean_model_passes_every_check(self):
        controller = learned_controller()
        watchdog = fresh_watchdog(controller)
        report = watchdog.inspect(100, controller)
        assert report.ok
        assert report.bad_states == []
        assert not report.structural

    def test_nan_coordinate_flags_the_row(self):
        controller = learned_controller()
        watchdog = fresh_watchdog(controller)
        controller.state_space.coords[1] = np.nan
        report = watchdog.inspect(100, controller)
        assert not report.ok
        assert report.bad_states == [1]
        assert not report.structural

    def test_absurd_magnitude_coordinate_flags_the_row(self):
        controller = learned_controller()
        watchdog = fresh_watchdog(controller)
        controller.state_space.coords[0] = 1e9
        report = watchdog.inspect(100, controller)
        assert report.bad_states == [0]

    def test_nan_representative_flags_the_row(self):
        controller = learned_controller()
        watchdog = fresh_watchdog(controller)
        reps = controller.state_space.representatives
        reps._points[1][0] = float("nan")
        reps._matrix = None
        report = watchdog.inspect(100, controller)
        assert 1 in report.bad_states

    def test_length_mismatch_is_structural(self):
        controller = learned_controller()
        watchdog = fresh_watchdog(controller)
        controller.state_space.labels.append(controller.state_space.labels[-1])
        report = watchdog.inspect(100, controller)
        assert report.structural

    def test_poisoned_geometry_cache_is_cache_only(self):
        controller = learned_controller()
        watchdog = fresh_watchdog(controller)
        geometry = controller.state_space.geometry()
        if geometry.radii.size == 0:
            pytest.skip("run produced no violation states")
        geometry.radii[0] = -1.0
        report = watchdog.inspect(100, controller)
        assert report.cache_poisoned
        assert report.bad_states == []

    def test_nan_histogram_flags_the_mode_model(self):
        controller = learned_controller()
        watchdog = fresh_watchdog(controller)
        model = next(
            m
            for m in controller.predictor.modes.models.values()
            if len(m.distances.samples)
        )
        model.distances.add(float("nan"))
        report = watchdog.inspect(100, controller)
        assert report.bad_modes

    def test_degenerate_beta_flagged(self):
        controller = learned_controller()
        watchdog = fresh_watchdog(controller)
        controller.throttle.beta = float("nan")
        report = watchdog.inspect(100, controller)
        assert report.beta_bad


class TestHeal:
    def test_bad_rows_quarantined_when_enabled(self):
        controller = learned_controller()
        watchdog = fresh_watchdog(controller)
        before = len(controller.state_space)
        controller.state_space.coords[1] = np.nan
        actions = watchdog.check_and_heal(100, controller)
        assert actions == ["quarantine"]
        assert len(controller.state_space) == before - 1
        assert np.isfinite(controller.state_space.coords).all()
        assert controller.events.count(EventKind.MODEL_QUARANTINE) == 1

    def test_structural_damage_hard_resets(self):
        controller = learned_controller()
        watchdog = fresh_watchdog(controller)
        states = len(controller.state_space)
        controller.state_space.labels.append(controller.state_space.labels[-1])
        actions = watchdog.check_and_heal(100, controller)
        assert actions == ["reset"]
        assert len(controller.state_space) == 0
        assert controller.state_space.coords.shape == (0, 2)
        summary = watchdog.summary()
        assert summary["resets"] == 1 and summary["mode_resets"] == 0
        for model in controller.predictor.modes.models.values():
            assert len(model.distances.samples) == len(model.angles.samples) == 0
            assert model.steps_observed == 0 and model.last_point is None
        [event] = controller.events.of_kind(EventKind.MODEL_RESET)
        assert event.detail == {
            "modes": [mode.value for mode in ExecutionMode],
            "states": states,
        }

    def test_cache_poisoning_heals_by_rebuild_only(self):
        controller = learned_controller()
        watchdog = fresh_watchdog(controller)
        geometry = controller.state_space.geometry()
        if geometry.radii.size == 0:
            pytest.skip("run produced no violation states")
        geometry.radii[0] = -5.0
        actions = watchdog.check_and_heal(100, controller)
        assert actions == ["geometry-rebuild"]
        rebuilt = controller.state_space.geometry()
        assert (rebuilt.radii >= 0).all()
        summary = watchdog.summary()
        assert summary["mode_resets"] == 0 and summary["resets"] == 0

    def test_beta_reset(self):
        controller = learned_controller()
        watchdog = fresh_watchdog(controller)
        controller.throttle.beta = float("inf")
        actions = watchdog.check_and_heal(100, controller)
        assert "beta-reset" in actions
        assert controller.throttle.beta == controller.config.beta_initial

    def test_poisoned_histogram_resets_that_mode(self):
        controller = learned_controller()
        watchdog = fresh_watchdog(controller)
        mode, model = next(
            (mode, m)
            for mode, m in controller.predictor.modes.models.items()
            if len(m.distances.samples)
        )
        model.distances.add(float("nan"))
        actions = watchdog.check_and_heal(100, controller)
        assert actions == ["mode-reset"]
        assert len(model.distances.samples) == len(model.angles.samples) == 0
        assert model.steps_observed == 0 and model.last_point is None
        for m in controller.predictor.modes.models.values():
            assert m.distances.finite and m.angles.finite
        [event] = controller.events.of_kind(EventKind.MODEL_RESET)
        assert event.detail == {"modes": [mode.value]}
        summary = watchdog.summary()
        assert summary["mode_resets"] == 1 and summary["resets"] == 0
        assert watchdog.check_and_heal(101, controller) == []


class TestSnapshots:
    """Bookkeeping: the watchdog's counters and the controller's period
    count."""

    def test_summary_counters(self):
        controller = learned_controller()
        watchdog = fresh_watchdog(controller)
        controller.state_space.coords[0] = np.nan
        watchdog.check_and_heal(100, controller)
        summary = watchdog.summary()
        assert summary["checks"] == 1
        assert summary["violations"] == 1
        assert summary["quarantines"] == 1
        assert summary["mode_resets"] == 0

    def test_periods_and_snapshot_tick_count_gap_periods(self):
        # ``trajectory`` only gets a point on a mapped period; the period
        # count must not be read off it.
        scenario = Scenario("webservice-mix", ("cpubomb", "memorybomb"), ticks=400, seed=3)
        outage = ContainmentMix(fault_windows=((380, 400, "map"),))
        controller = run_recovery_drill(scenario, mix=outage).controller
        assert controller.trajectory[-1].tick == 379  # the outage mapped nothing
        assert len(controller.trajectory) < 400
        assert controller.summary()["periods"] == 400
        assert controller.last_period_tick == 399


def mapped_controller(ticks=150, seed=4):
    """A controller whose map is large enough for the stress check
    (``MIN_STATES_FOR_STRESS``), built-in watchdog off."""
    built = Scenario(
        sensitive="webservice-mix",
        batches=("cpubomb", "memorybomb"),
        ticks=ticks,
        batch_start=30,
        seed=seed,
    ).build()
    controller = StayAway(built.sensitive_app, config=StayAwayConfig(seed=seed))
    controller.watchdog = None
    SimulationEngine(built.host, [controller]).run(ticks=ticks)
    assert len(controller.state_space) >= MIN_STATES_FOR_STRESS
    return controller, built.host


class TestPoisonerKindsAreCaughtAtOnce:
    """Each :class:`ModelPoisoner` kind writes into live state from
    outside; the very next inspection has to name it."""

    @pytest.mark.parametrize(
        "kind,check",
        [
            ("nan-coords", "finite-rows"),
            ("garbage-coords", "finite-rows"),
            ("nan-representative", "finite-rows"),
            ("negative-radius", "geometry"),
            ("nan-histogram", "histograms"),
            ("nan-beta", "beta"),
        ],
    )
    def test_kind_reported_on_the_period_it_is_injected(self, kind, check):
        assert set(ModelPoisoner.KINDS) == {
            "nan-coords", "garbage-coords", "nan-representative",
            "negative-radius", "nan-histogram", "nan-beta",
        }
        controller, host = mapped_controller()
        watchdog = fresh_watchdog(controller)
        controller.state_space.geometry()  # materialize the cache the poisoner hits
        assert watchdog.inspect(150, controller).ok
        poisoner = ModelPoisoner(controller, seed=1, probability=1.0, kinds=[kind])
        poisoner.on_tick(host.step(), host)
        assert [event.kind for event in poisoner.fired] == [f"poison-{kind}"]
        report = watchdog.inspect(151, controller)
        assert [issue.check for issue in report.issues] == [check]


class TestStressMemo:
    @staticmethod
    def count_stress_calls(monkeypatch):
        calls = []

        def counting(coords, target):
            calls.append(1)
            return normalized_stress(coords, target)

        monkeypatch.setattr(state_space_module, "normalized_stress", counting)
        return calls

    def test_unchanged_map_is_not_rescored(self, monkeypatch):
        controller, _ = mapped_controller()
        watchdog = fresh_watchdog(controller)
        calls = self.count_stress_calls(monkeypatch)
        for tick in range(150, 155):
            assert watchdog.inspect(tick, controller).ok
        assert len(calls) == 1

    def test_in_place_write_of_equal_shape_is_rescored(self, monkeypatch):
        controller, _ = mapped_controller()
        watchdog = fresh_watchdog(controller)
        calls = self.count_stress_calls(monkeypatch)
        assert watchdog.inspect(150, controller).ok
        controller.state_space.coords[3, 0] += 1e-6  # same array object, new content
        assert watchdog.inspect(151, controller).ok
        assert len(calls) == 2

    def test_finite_small_scramble_is_caught_on_the_next_period(self):
        # Nothing here trips the per-row checks (every value finite and
        # tiny) and no StateSpace mutator runs, so only a memo keyed on
        # content notices that the map collapsed.
        controller, _ = mapped_controller()
        watchdog = fresh_watchdog(controller)
        assert watchdog.inspect(150, controller).ok
        controller.state_space.coords *= 1e-3
        report = watchdog.inspect(151, controller)
        assert [issue.check for issue in report.issues] == ["stress"]
        assert report.structural
        assert controller.state_space.stress() > STRESS_DIVERGENCE


#: Stands for the state row a poisoner event names (``coords[26]``).
HIT = object()


def _poison(kind, controller, host):
    """A named write into live learned state, as ``ModelPoisoner`` makes
    them; returns the row index a poisoner event names, else None."""
    space = controller.state_space
    if kind in ModelPoisoner.KINDS:
        poisoner = ModelPoisoner(controller, seed=1, probability=1.0, kinds=[kind])
        poisoner.on_tick(host.step(), host)
        assert [event.kind for event in poisoner.fired] == [f"poison-{kind}"]
        row = re.fullmatch(r"\w+\[(\d+)\]", poisoner.fired[0].target)
        return None if row is None else int(row.group(1))
    elif kind == "inf-scale":
        object.__setattr__(space._geometry, "scale", float("inf"))
    elif kind == "nan-centre":
        space._geometry.centers[0, 1] = float("nan")
    elif kind == "inf-last-point":
        model = controller.predictor.modes.models[ExecutionMode.COLOCATED]
        model._last_point = np.array([float("inf"), 0.0])
    elif kind == "garbage-representative":
        space.representatives._points[2][3] = 1e9
        space.representatives._matrix = None
    else:  # pragma: no cover
        raise AssertionError(kind)


class TestVerdictTable:
    """Every poison, its verdict and its repair — recorded at the parent
    of the PR that moved the checks from NumPy reductions to floats, and
    required unchanged: same ``HealthIssue.check``, same ``bad_states``
    / ``bad_modes``, same heal action, except that the two
    ``histograms`` rows expect the in-place mode reset. ``HIT`` is the
    row the poisoner's event names, wherever its draw landed."""

    TABLE = [
        # kind, check, bad_states, bad_modes, actions
        ("nan-coords", "finite-rows", HIT, [], ["quarantine"]),
        ("garbage-coords", "finite-rows", HIT, [], ["quarantine"]),
        ("nan-representative", "finite-rows", HIT, [], ["quarantine"]),
        ("negative-radius", "geometry", [], [], ["geometry-rebuild"]),
        ("nan-histogram", "histograms", [], ["sensitive-only"], ["mode-reset"]),
        ("nan-beta", "beta", [], [], ["beta-reset"]),
        ("inf-scale", "geometry", [], [], ["geometry-rebuild"]),
        ("nan-centre", "geometry", [], [], ["geometry-rebuild"]),
        ("inf-last-point", "histograms", [], ["colocated"], ["mode-reset"]),
        ("garbage-representative", "finite-rows", [2], [], ["quarantine"]),
    ]

    def test_the_table_names_every_poisoner_kind(self):
        assert set(ModelPoisoner.KINDS) <= {row[0] for row in self.TABLE}

    @pytest.mark.parametrize("kind,check,bad_states,bad_modes,actions", TABLE)
    def test_verdict_and_repair(self, kind, check, bad_states, bad_modes, actions):
        controller, host = mapped_controller()
        watchdog = fresh_watchdog(controller)
        assert controller.state_space.geometry().radii.size
        assert watchdog.inspect(150, controller).ok
        row = _poison(kind, controller, host)
        report = watchdog.inspect(151, controller)
        assert [issue.check for issue in report.issues] == [check]
        assert report.bad_states == ([row] if bad_states is HIT else bad_states)
        assert [mode.value for mode in report.bad_modes] == bad_modes
        assert watchdog.heal(151, controller, report) == actions
        assert watchdog.inspect(152, controller).ok


class _StructuralBreach:
    """Misalign the map's labels after the controller's period at each
    scripted tick: the next period's watchdog must hard-reset."""

    def __init__(self, controller, ticks):
        self.controller = controller
        self.ticks = set(ticks)

    def on_tick(self, snapshot, host):
        if snapshot.tick in self.ticks:
            labels = self.controller.state_space.labels
            labels.append(labels[-1])


class TestHealInvalidatesThePendingForecast:
    """A hard reset rewrites the map at step 0d, before the period maps:
    the forecast made last period and the coordinates about to be
    observed no longer share a frame, so the accuracy ledger must not
    score one against the other. A quarantine and a mode reset leave
    every surviving coordinate where it was."""

    BREACHES = (250, 450, 650)

    def test_no_record_settles_across_a_rewritten_map(self):
        ticks, seed = 800, 3000  # host_steady's scenario, episode 0 of seed 3
        built = Scenario(
            sensitive="webservice-mix",
            batches=("cpubomb", "memorybomb"),
            ticks=ticks,
            batch_start=60,
            seed=seed,
        ).build()
        controller = StayAway(built.sensitive_app, config=StayAwayConfig(seed=seed))
        breach = _StructuralBreach(controller, self.BREACHES)
        poisoner = ModelPoisoner(controller, seed=1, probability=0.06)
        healed = {}
        heal = controller.watchdog.heal

        def recording_heal(tick, owner, report):
            actions = heal(tick, owner, report)
            healed[tick] = actions
            return actions

        controller.watchdog.heal = recording_heal
        SimulationEngine(built.host, [controller, breach, poisoner]).run(ticks=ticks)

        settled = {record.tick for record in controller.predictor.accuracy_records}
        rewritten = sorted(t for t, acts in healed.items() if "reset" in acts)
        dropped_rows = [t for t, acts in healed.items() if acts == ["quarantine"]]
        cleared_modes = [t for t, acts in healed.items() if acts == ["mode-reset"]]
        assert len(poisoner.fired) > 30 and dropped_rows and cleared_modes
        assert rewritten == [t + 1 for t in self.BREACHES]
        # The forecast made one period (tick) before a rewrite never settles.
        assert not [t for t in rewritten if t - 1 in settled]
        # The forecast stays armed and is scored as usual.
        assert [t for t in dropped_rows if t - 1 in settled]
        assert [t for t in cleared_modes if t - 1 in settled]
        assert controller.summary()["telemetry"]["containment"]["firewall_catches"] == 0
