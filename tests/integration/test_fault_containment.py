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
from repro.experiments.chaos import (
    ContainmentMix,
    run_recovery_comparison,
    run_recovery_drill,
)
from repro.experiments.scenarios import Scenario
from repro.sim.engine import SimulationEngine
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
        assert controller.watchdog.violations == len(fired)
        assert controller.watchdog.mode_resets == len(fired)
        assert controller.watchdog.resets == 0
        assert controller.events.count(EventKind.FIREWALL_CATCH) == 0
        assert all(
            model.distances.finite and model.angles.finite
            for model in controller.predictor.modes.models.values()
        )


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
        controller.state_space.coords[0] = np.nan
        controller.state_space.labels.append(controller.state_space.labels[-1])
        assert watchdog.check_and_heal(200, controller) == ["reset"]
        # In-place reset: the mapping pipeline's reference stays valid.
        assert controller.state_space is space_before
        assert controller.mapping.state_space is space_before
        assert len(controller.state_space) == 0
        assert np.isfinite(controller.state_space.coords).all()
