"""Fault containment end to end: firewall, in-place heals.

A mapping-stage outage mid-run must degrade each failing period and
recover the period the stage heals, instead of terminating the
simulation, and a watchdog mode reset must clear the poisoned mode and
nothing else (verified against a deep copy of the controller taken
before the poison).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.events import EventKind
from repro.core.model_health import ModelHealthWatchdog
from repro.core.state_space import StateSpace
from repro.experiments.chaos import (
    ContainmentMix,
    run_recovery_comparison,
    run_recovery_drill,
)
from repro.experiments.scenarios import Scenario
from repro.sim.engine import SimulationEngine
from repro.telemetry import Telemetry
from repro.trajectory.modes import ExecutionMode


def drill_scenario(ticks=500):
    return Scenario(
        sensitive="vlc-streaming", batches=("cpubomb",), ticks=ticks, seed=1
    )


class TestMappingOutageRecovery:
    """A scripted mapping-stage outage mid-run: contain, degrade, recover."""

    def run_drill(self):
        # 40 failing periods, ending well before the run does.
        mix = ContainmentMix(
            seed=3, stage_fault=0.0, poison=0.0, fault_windows=((100, 140, "map"),)
        )
        return run_recovery_drill(drill_scenario(), mix=mix)

    def test_run_completes_despite_mid_run_stage_crashes(self):
        result = self.run_drill()
        assert result.crashed_at is None
        # The controller kept running periods after the outage ended.
        assert result.controller.trajectory[-1].tick > 140

    def test_firewall_contained_every_injected_exception(self):
        result = self.run_drill()
        summary = result.controller.summary()["telemetry"]["containment"]
        assert summary["enabled"]
        assert summary["firewall_catches"] == len(result.injector.fired)
        assert summary["firewall_catches"] > 0
        assert result.controller.events.count(EventKind.FIREWALL_CATCH) > 0

    def test_mapping_resumes_the_period_the_outage_ends(self):
        """Every period of a 60-period outage is caught, and the first
        period after it maps again: nothing holds a healed stage off."""
        mix = ContainmentMix(
            seed=7, stage_fault=0.0, poison=0.0, fault_windows=((75, 135, "map"),)
        )
        result = run_recovery_drill(drill_scenario(ticks=300), mix=mix)
        catches = result.controller.events.of_kind(EventKind.FIREWALL_CATCH)
        assert [event.detail["stage"] for event in catches] == ["map"] * 60
        assert [event.tick for event in catches] == list(range(75, 135))
        mapped = [point.tick for point in result.controller.trajectory]
        assert min(tick for tick in mapped if tick >= 135) == 135

    def test_containment_beats_uncontained_under_identical_faults(self):
        mix = ContainmentMix(
            seed=3, stage_fault=0.02, poison=0.02, fault_windows=((100, 140, "map"),)
        )
        arms = run_recovery_comparison(drill_scenario(), mix=mix).arms
        assert arms["contained"].crashed_at is None
        assert arms["uncontained"].crashed_at is not None
        assert arms["uncontained"].crash.fault is not None
        assert arms["contained"].violation_ratio() < arms["uncontained"].violation_ratio()


class TestHistogramPoisonHealedNextPeriod:
    """A NaN written into a step window through ``add`` is the only
    poison the watchdog finds from a running count instead of a scan."""

    def test_every_poison_is_reported_and_reset_one_period_later(self):
        mix = ContainmentMix(
            seed=3, stage_fault=0.0, poison=0.1, poison_kinds=("nan-histogram",)
        )
        result = run_recovery_drill(drill_scenario(ticks=400), mix=mix)
        controller = result.controller
        fired = [event.tick for event in result.poisoner.fired]
        assert len(fired) >= 5
        # The poisoner runs after the controller, so the damage is the
        # next period's to find — before it maps or predicts over it.
        healed = [
            event.tick for event in controller.events.of_kind(EventKind.MODEL_RESET)
        ]
        assert healed == [tick + 1 for tick in fired]
        watchdog = controller.watchdog.summary()
        assert watchdog["violations"] == len(fired)
        assert watchdog["mode_resets"] == len(fired)
        assert watchdog["resets"] == 0
        assert controller.events.count(EventKind.FIREWALL_CATCH) == 0
        assert all(
            model.distances.finite and model.angles.finite
            for model in controller.predictor.modes.models.values()
        )


class TestSummariesAreTheRegistry:
    """Every count a summary reports is the counter the exposition
    exports: one count, kept once, in the controller's registry."""

    #: Each ``ModelHealthWatchdog.summary()`` key and its counter.
    WATCHDOG_COUNTERS = {
        "checks": "containment.watchdog_checks",
        "violations": "containment.watchdog_violations",
        "quarantines": "containment.quarantines",
        "quarantined_states": "containment.quarantined_states",
        "mode_resets": "containment.mode_resets",
        "geometry_repairs": "containment.geometry_repairs",
        "resets": "containment.model_resets",
        "beta_resets": "containment.beta_resets",
    }

    def recovery_cell(self):
        """The recovery bench's cell plus a 20-period guard outage, so
        that mode resets, beta resets and degraded entries all occur."""
        ticks = 1200
        mix = ContainmentMix(
            seed=7,
            stage_fault=0.03,
            stages=("map", "predict"),
            fault_windows=(
                (ticks // 4, ticks // 4 + 60, "map"),
                (ticks // 2, ticks // 2 + 20, "guard"),
            ),
            poison=0.03,
        )
        return run_recovery_drill(drill_scenario(ticks=ticks), mix=mix).controller

    def test_every_summary_count_is_its_registry_counter(self):
        controller = self.recovery_cell()
        registry = controller.telemetry.registry

        def value(name):
            return int(registry.get(name).value)

        watchdog = controller.watchdog.summary()
        assert set(watchdog) == set(self.WATCHDOG_COUNTERS)
        assert watchdog["mode_resets"] > 0 and watchdog["beta_resets"] > 0
        for key, name in self.WATCHDOG_COUNTERS.items():
            assert watchdog[key] == value(name), key

        health = controller.health.summary()
        assert health["degraded_entries"] > 0
        assert health["degraded_entries"] == value("health.degraded_entries")
        assert health["degraded_periods"] == value("health.degraded_periods")

        space = controller.state_space
        assert space.geometry_stats() == {
            "cache_hits": value("geometry.cache_hits"),
            "rebuilds": value("geometry.rebuilds"),
            "invalidations": value("geometry.invalidations"),
        }
        assert space.refit_count == value("mapping.refits")

        exposition = controller.telemetry.to_prometheus()
        assert f"containment_mode_resets_total {float(watchdog['mode_resets'])}" in exposition
        assert f"containment_beta_resets_total {float(watchdog['beta_resets'])}" in exposition
        assert "health_degraded_entries_total" in exposition

    def test_refits_and_solves_are_counted_once(self):
        telemetry = Telemetry(enabled=False)
        space = StateSpace(epsilon=0.001, telemetry=telemetry)
        space.refit_interval = 5
        rng = np.random.default_rng(3)
        for _ in range(23):
            space.add_sample(rng.uniform(0, 1, 4), violated=False)
        assert space.refit_count == 4
        assert telemetry.counter("mapping.refits").value == 4
        assert telemetry.histogram("smacof.iterations").count == 4
        assert telemetry.registry.get("smacof.runs") is None


class TestRefitUnderContainment:
    """A poisoned map that is later refit. The drill's own cell never
    grows a map to ``refit_interval`` states; the e2e ``host_steady``
    scenario (webservice-mix + cpubomb + memorybomb, 2 400 ticks) does,
    and runs here under the recovery bench's mix."""

    def test_poisoned_map_refits_to_finite_coordinates(self, monkeypatch):
        refit = StateSpace.refit
        finite_after = []

        def checked(space):
            stress = refit(space)
            finite_after.append(bool(np.isfinite(space.coords).all()))
            return stress

        monkeypatch.setattr(StateSpace, "refit", checked)
        scenario = Scenario(
            sensitive="webservice-mix",
            batches=("cpubomb", "memorybomb"),
            ticks=2400,
            batch_start=60,
            seed=1,
        )
        mix = ContainmentMix(seed=7, stage_fault=0.03, poison=0.03)
        result = run_recovery_drill(scenario, mix=mix)
        controller = result.controller
        assert result.crashed_at is None

        refits = controller.state_space.refit_count
        assert refits >= 1 and len(finite_after) == refits
        assert all(finite_after)
        first_refit = controller.events.of_kind(EventKind.REFIT)[0].tick
        assert any(
            event.tick < first_refit and event.target.startswith(("coords", "representatives"))
            for event in result.poisoner.fired
        )
        assert result.checker.summary()["breaches"] == 0

        exposition = controller.telemetry.to_prometheus()
        assert f"mapping_refits_total {float(refits)}" in exposition
        assert f"smacof_iterations_count {refits}" in exposition
        assert "smacof_converged_total" in exposition
        assert "smacof_last_stress" in exposition


class TestModeResetFidelity:
    """A mode reset clears one mode model; everything else equals a deep
    copy of the controller taken before the poison."""

    def learned_controller(self):
        """Both the sensitive-only and the co-located model learned, and
        the last forecast (co-located) still pending."""
        built = Scenario(
            sensitive="vlc-streaming",
            batches=("twitter-analysis",),
            ticks=200,
            batch_start=30,
            seed=4,
        ).build()
        config = StayAwayConfig(seed=4)
        controller = StayAway(built.sensitive_app, config=config)
        controller.watchdog = None  # the test drives its own
        SimulationEngine(built.host, [controller]).run(ticks=200)
        return controller, config

    def test_mode_reset_leaves_the_rest_equal_to_a_pre_poison_copy(self):
        controller, config = self.learned_controller()
        watchdog = ModelHealthWatchdog(config, controller.events)
        # The reference shares no code with the heal: the whole
        # controller, copied before the poison. Only the telemetry is
        # shared (its spans hold read-only mappings, which do not copy);
        # no prediction reads it.
        telemetry = controller.telemetry
        reference = copy.deepcopy(controller, memo={id(telemetry): telemetry})

        poisoned = ExecutionMode.SENSITIVE_ONLY
        models = controller.predictor.modes.models
        assert len(models[poisoned].distances.samples)
        models[poisoned].distances.add(float("nan"))
        assert watchdog.check_and_heal(200, controller) == ["mode-reset"]

        assert len(models[poisoned].distances.samples) == 0
        assert models[poisoned].steps_observed == 0
        for mode, model in models.items():
            if mode is poisoned:
                continue
            kept = reference.predictor.modes.models[mode]
            np.testing.assert_array_equal(model.distances.samples, kept.distances.samples)
            np.testing.assert_array_equal(model.angles.samples, kept.angles.samples)
            np.testing.assert_array_equal(model.last_point, kept.last_point)
            assert model.steps_observed == kept.steps_observed

        space, kept_space = controller.state_space, reference.state_space
        np.testing.assert_array_equal(space.coords, kept_space.coords)
        np.testing.assert_array_equal(
            space.representatives.points, kept_space.representatives.points
        )
        assert space.labels == kept_space.labels

        predictor, kept_predictor = controller.predictor, reference.predictor
        assert predictor.rng.bit_generator.state == kept_predictor.rng.bit_generator.state
        pending, kept_pending = predictor._pending, kept_predictor._pending
        assert pending is not None and not predictor._pending_invalidated
        assert not kept_predictor._pending_invalidated
        assert (pending.tick, pending.mode, pending.votes, pending.ready) == (
            kept_pending.tick, kept_pending.mode, kept_pending.votes, kept_pending.ready
        )
        np.testing.assert_array_equal(pending.candidates, kept_pending.candidates)

        # Identical prediction calls on both controllers must agree: the
        # co-located model and the predictor RNG stream were untouched.
        current = controller.state_space.coords[0]
        for tick in (210, 220, 230):
            healed = controller.predictor.predict(
                tick, ExecutionMode.COLOCATED, current, controller.state_space
            )
            untouched = reference.predictor.predict(
                tick, ExecutionMode.COLOCATED, current, reference.state_space
            )
            assert healed.ready and healed.ready == untouched.ready
            assert healed.votes == untouched.votes
            assert healed.impending_violation == untouched.impending_violation
            np.testing.assert_array_equal(healed.candidates, untouched.candidates)

    def test_hard_reset_preserves_live_references(self):
        controller, config = self.learned_controller()
        watchdog = ModelHealthWatchdog(config, controller.events)
        space_before = controller.state_space
        controller.state_space.coords[:] = np.nan  # every row bad
        assert watchdog.check_and_heal(200, controller) == ["reset"]
        # In-place reset: the mapping pipeline's reference stays valid.
        assert controller.state_space is space_before
        assert controller.mapping.state_space is space_before
        assert len(controller.state_space) == 0
        assert np.isfinite(controller.state_space.coords).all()
