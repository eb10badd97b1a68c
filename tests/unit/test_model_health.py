"""Model-health watchdog decisions (core/model_health.py)."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.events import EventKind
from repro.core import model_health as model_health_module
from repro.core.model_health import (
    MAGNITUDE_LIMIT,
    MIN_STATES_FOR_STRESS,
    STRESS_DIVERGENCE,
    ModelHealthWatchdog,
    _bad_rows,
)
from repro.experiments.chaos import ContainmentMix, run_recovery_drill
from repro.experiments.scenarios import Scenario
from repro.mds.distances import pairwise_distances
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
        assert watchdog.inspect(100, controller) is None

    def test_nan_coordinate_flags_the_row(self):
        controller = learned_controller()
        watchdog = fresh_watchdog(controller)
        controller.state_space.coords[1] = np.nan
        report = watchdog.inspect(100, controller)
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
        controller.state_space.representatives.points[1, 0] = float("nan")
        report = watchdog.inspect(100, controller)
        assert 1 in report.bad_states

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
        controller.state_space.coords[:] = np.nan  # every row bad
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

    def test_a_failed_placement_leaves_one_row_to_quarantine(self):
        # A NaN representative fails the next new state's placement; the
        # map must stay whole, so the watchdog quarantines the poisoned
        # row instead of finding a length mismatch and clearing the map.
        controller = learned_controller()
        watchdog = fresh_watchdog(controller)
        space = controller.state_space
        space.clear()
        space.refit_interval = 10**9
        dimension = space.representatives.dimension
        rng = np.random.default_rng(0)
        for sample in rng.uniform(size=(6, dimension)):
            space.add_sample(sample, violated=False)
        space.representatives.points[2, 0] = float("nan")
        with pytest.raises(ValueError, match="deltas must be finite"):
            space.add_sample(rng.uniform(size=dimension), violated=False)
        assert len(space.representatives) == len(space.coords) == len(space.labels) == 6
        quarantined = watchdog.summary()["quarantined_states"]
        assert watchdog.check_and_heal(100, controller) == ["quarantine"]
        [event] = controller.events.of_kind(EventKind.MODEL_QUARANTINE)
        assert event.detail["states"] == [2]
        assert watchdog.summary()["quarantined_states"] == quarantined + 1
        assert watchdog.summary()["resets"] == 0
        assert controller.events.count(EventKind.MODEL_RESET) == 0
        assert len(space) == 5

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
        assert watchdog.inspect(150, controller) is None
        poisoner = ModelPoisoner(controller, seed=1, probability=1.0, kinds=[kind])
        poisoner.on_tick(host.step(), host)
        assert [event.kind for event in poisoner.fired] == [f"poison-{kind}"]
        report = watchdog.inspect(151, controller)
        assert [issue.check for issue in report.issues] == [check]


class TestStressMemo:
    @staticmethod
    def count_stress_calls(monkeypatch):
        """Count the watchdog's full pair sums (every pair of the map)."""
        calls = []
        full_sums = model_health_module._stress_sums

        def counting(coords, points):
            calls.append(1)
            return full_sums(coords, points)

        monkeypatch.setattr(model_health_module, "_stress_sums", counting)
        return calls

    def test_unchanged_map_is_not_rescored(self, monkeypatch):
        controller, _ = mapped_controller()
        watchdog = fresh_watchdog(controller)
        calls = self.count_stress_calls(monkeypatch)
        for tick in range(150, 155):
            assert watchdog.inspect(tick, controller) is None
        assert len(calls) == 1

    def test_in_place_write_of_equal_shape_is_rescored(self, monkeypatch):
        controller, _ = mapped_controller()
        watchdog = fresh_watchdog(controller)
        calls = self.count_stress_calls(monkeypatch)
        assert watchdog.inspect(150, controller) is None
        controller.state_space.coords[3, 0] += 1e-6  # same array object, new content
        assert watchdog.inspect(151, controller) is None
        assert len(calls) == 2

    def test_appended_states_are_scored_by_their_rows(self, monkeypatch):
        controller, _ = mapped_controller()
        watchdog = fresh_watchdog(controller)
        assert watchdog.inspect(150, controller) is None
        calls = self.count_stress_calls(monkeypatch)
        TestAppendedRows.grown(controller, count=2)
        assert watchdog.inspect(151, controller) is None
        assert calls == []
        space = controller.state_space
        assert watchdog._stress(space) == pytest.approx(
            normalized_stress(space.coords, pairwise_distances(space.representatives.points)),
            rel=1e-12,
        )

    def test_finite_small_scramble_is_caught_on_the_next_period(self):
        # Nothing here trips the per-row checks (every value finite and
        # tiny) and no StateSpace mutator runs, so only a memo keyed on
        # content notices that the map collapsed.
        controller, _ = mapped_controller()
        watchdog = fresh_watchdog(controller)
        assert watchdog.inspect(150, controller) is None
        controller.state_space.coords *= 1e-3
        report = watchdog.inspect(151, controller)
        assert [issue.check for issue in report.issues] == ["stress"]
        assert report.structural
        assert controller.state_space.stress() > STRESS_DIVERGENCE


class TestGeometryMemo:
    """The cached-geometry check re-runs only on bytes that differ from
    the last clean ones; an in-place write is such a difference."""

    @pytest.mark.parametrize("poison", [float("nan"), -1.0])
    def test_radius_written_after_a_clean_pass_is_flagged(self, poison):
        controller, _ = mapped_controller()
        watchdog = fresh_watchdog(controller)
        geometry = controller.state_space.geometry()
        assert geometry.radii.size
        assert watchdog.inspect(150, controller) is None
        assert watchdog.inspect(151, controller) is None  # the memo now holds it
        geometry.radii[0] = poison
        report = watchdog.inspect(152, controller)
        assert [issue.check for issue in report.issues] == ["geometry"]
        assert report.cache_poisoned

    def test_rebuilt_clean_geometry_passes_again(self):
        controller, _ = mapped_controller()
        watchdog = fresh_watchdog(controller)
        geometry = controller.state_space.geometry()
        assert watchdog.inspect(150, controller) is None
        geometry.radii[0] = -1.0
        report = watchdog.inspect(151, controller)
        assert watchdog.heal(151, controller, report) == ["geometry-rebuild"]
        controller.state_space.geometry()
        assert watchdog.inspect(152, controller) is None


class TestAppendedRows:
    """When the map only grew, the row check reads the appended rows; a
    write into an old row breaks the byte prefix and checks them all."""

    @staticmethod
    def grown(controller, count=1):
        """Append ``count`` new states without a refit; returns the rows
        the map had before."""
        space = controller.state_space
        space.refit_interval = 10**9
        before = len(space)
        dim = space.representatives.dimension
        for k in range(count):
            _, is_new, _ = space.add_sample(np.full(dim, 5.0 + k), violated=False)
            assert is_new
        return before

    @staticmethod
    def record_row_checks(monkeypatch):
        rows = []

        def recording(matrix):
            rows.append(matrix.shape[0])
            return _bad_rows(matrix)

        monkeypatch.setattr(model_health_module, "_bad_rows", recording)
        return rows

    def test_only_appended_rows_are_checked(self, monkeypatch):
        controller, _ = mapped_controller()
        watchdog = fresh_watchdog(controller)
        assert watchdog.inspect(150, controller) is None
        rows = self.record_row_checks(monkeypatch)
        self.grown(controller, count=2)
        assert watchdog.inspect(151, controller) is None
        assert rows == [2, 2]  # coords, then representatives

    def test_nan_in_an_old_row_at_an_unchanged_row_count_is_flagged(self):
        controller, _ = mapped_controller()
        watchdog = fresh_watchdog(controller)
        assert watchdog.inspect(150, controller) is None
        n = len(controller.state_space)
        controller.state_space.coords[2, 1] = float("nan")
        report = watchdog.inspect(151, controller)
        assert len(controller.state_space) == n
        assert report.bad_states == [2]

    def test_nan_in_an_old_representative_row_is_flagged(self):
        controller, _ = mapped_controller()
        watchdog = fresh_watchdog(controller)
        assert watchdog.inspect(150, controller) is None
        controller.state_space.representatives.points[4, 0] = float("nan")
        assert watchdog.inspect(151, controller).bad_states == [4]

    def test_a_bad_appended_row_is_flagged(self):
        controller, _ = mapped_controller()
        watchdog = fresh_watchdog(controller)
        assert watchdog.inspect(150, controller) is None
        before = self.grown(controller)
        controller.state_space.coords[before, 0] = float("inf")
        assert watchdog.inspect(151, controller).bad_states == [before]

    def test_a_bad_appended_representative_is_flagged(self):
        controller, _ = mapped_controller()
        watchdog = fresh_watchdog(controller)
        assert watchdog.inspect(150, controller) is None
        before = self.grown(controller, count=3)
        controller.state_space.representatives.points[before + 1, 2] = 1e9
        assert watchdog.inspect(151, controller).bad_states == [before + 1]

    def test_an_old_row_written_while_the_map_grew_is_flagged(self, monkeypatch):
        controller, _ = mapped_controller()
        watchdog = fresh_watchdog(controller)
        assert watchdog.inspect(150, controller) is None
        before = self.grown(controller)
        controller.state_space.coords[0, 0] = float("nan")
        rows = self.record_row_checks(monkeypatch)
        assert watchdog.inspect(151, controller).bad_states == [0]
        assert rows[0] == before + 1  # every coords row checked

    def test_a_poisoned_representative_survives_growth_and_is_quarantined(self):
        # The poisoner's write goes into the matrix only; the states
        # added after it move the matrix into a larger buffer, and the
        # write has to move with it.
        controller, _ = mapped_controller()
        watchdog = fresh_watchdog(controller)
        assert watchdog.inspect(150, controller) is None
        space = controller.state_space
        space.refit_interval = 10**9
        matrix = space.representatives.points
        # Garbage, not NaN: a NaN row would fail every new state's
        # placement, so the map could not grow; and not so large that
        # the new states' placements land out of range too.
        matrix[3, 1] = 10 * MAGNITUDE_LIMIT
        rng = np.random.default_rng(0)
        while np.shares_memory(space.representatives.points, matrix):
            space.add_sample(rng.uniform(size=matrix.shape[1]), violated=False)
        states = len(space)
        quarantined = watchdog.summary()["quarantined_states"]
        assert watchdog.check_and_heal(151, controller) == ["quarantine"]
        assert watchdog.summary()["quarantined_states"] == quarantined + 1
        [event] = controller.events.of_kind(EventKind.MODEL_QUARANTINE)
        assert event.detail["states"] == [3]
        assert len(space) == states - 1
        assert np.abs(space.representatives.points).max() <= MAGNITUDE_LIMIT


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
        space._geometry = space._geometry._replace(scale=float("inf"))
    elif kind == "nan-centre":
        space._geometry.centers[0, 1] = float("nan")
    elif kind == "inf-last-point":
        model = controller.predictor.modes.models[ExecutionMode.COLOCATED]
        model._last_point = np.array([float("inf"), 0.0])
    elif kind == "garbage-representative":
        space.representatives.points[2, 3] = 1e9
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
        assert watchdog.inspect(150, controller) is None
        row = _poison(kind, controller, host)
        report = watchdog.inspect(151, controller)
        assert [issue.check for issue in report.issues] == [check]
        assert report.bad_states == ([row] if bad_states is HIT else bad_states)
        assert [mode.value for mode in report.bad_modes] == bad_modes
        assert watchdog.heal(151, controller, report) == actions
        assert watchdog.inspect(152, controller) is None


class _StructuralBreach:
    """Poison every row of the map after the controller's period at each
    scripted tick: the next period's watchdog must hard-reset."""

    def __init__(self, controller, ticks):
        self.controller = controller
        self.ticks = set(ticks)

    def on_tick(self, snapshot, host):
        if snapshot.tick in self.ticks:
            self.controller.state_space.coords[:] = np.nan


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
