"""Fault containment end to end: firewall, rollback fidelity.

A mapping-stage outage mid-run must degrade each failing period and
recover the period the stage heals, instead of terminating the
simulation, and a watchdog rollback must restore the learned models to
*exactly* the last-known-good state (verified against a deep copy of
the controller taken when the snapshot was).
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
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host
from repro.sim.resources import ResourceVector
from repro.trajectory.modes import ExecutionMode

from tests.conftest import ConstantApp, SensitiveStub


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

    def test_every_poison_is_reported_and_rolled_back_one_period_later(self):
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
            event.tick for event in controller.events.of_kind(EventKind.MODEL_ROLLBACK)
        ]
        assert healed == [tick + 1 for tick in fired]
        assert controller.watchdog.violations == len(fired)
        assert controller.events.count(EventKind.FIREWALL_CATCH) == 0
        assert all(
            model.distances.finite and model.angles.finite
            for model in controller.predictor.modes.models.values()
        )


class TestRollbackFidelity:
    """Watchdog rollback == a deep copy taken at the snapshot tick."""

    def learned_controller(self):
        host = Host()
        sensitive = SensitiveStub(
            demand_vector=ResourceVector(cpu=3.0, memory=500.0)
        )
        bomb = ConstantApp(
            name="bomb", demand_vector=ResourceVector(cpu=4.0, memory=64.0)
        )
        host.add_container(Container(name="sens", app=sensitive, sensitive=True))
        host.add_container(Container(name="bomb", app=bomb, start_tick=5))
        config = StayAwayConfig(seed=9)
        controller = StayAway(sensitive, config=config)
        controller.watchdog = None  # the test drives its own
        SimulationEngine(host, [controller]).run(ticks=120)
        return controller, config

    def test_post_rollback_predictions_match_the_snapshot_tick_copy(self):
        controller, config = self.learned_controller()
        watchdog = ModelHealthWatchdog(config, controller.events)
        assert watchdog.maybe_snapshot(120, controller)
        # The reference shares no code with the snapshot: the whole
        # controller, copied when the snapshot was taken. Only the
        # telemetry is shared (its spans hold read-only mappings, which
        # do not copy); no prediction reads it.
        telemetry = controller.telemetry
        reference = copy.deepcopy(controller, memo={id(telemetry): telemetry})

        # Poison the trajectory models -> watchdog must roll back.
        for model in controller.predictor.modes.models.values():
            model.distances.add(float("nan"))
        assert watchdog.check_and_heal(121, controller) == ["rollback"]

        assert len(controller.state_space) == len(reference.state_space)
        np.testing.assert_array_equal(
            controller.state_space.coords, reference.state_space.coords
        )
        assert controller.state_space.labels == reference.state_space.labels

        # Identical prediction calls on both controllers must agree —
        # model histograms and predictor RNG state were both restored.
        current = controller.state_space.coords[0]
        for tick in (130, 140, 150):
            rolled = controller.predictor.predict(
                tick, ExecutionMode.COLOCATED, current, controller.state_space
            )
            restored = reference.predictor.predict(
                tick, ExecutionMode.COLOCATED, current, reference.state_space
            )
            assert rolled.ready == restored.ready
            assert rolled.votes == restored.votes
            assert rolled.impending_violation == restored.impending_violation
            np.testing.assert_allclose(rolled.candidates, restored.candidates)

    def test_rollback_preserves_live_references(self):
        controller, config = self.learned_controller()
        watchdog = ModelHealthWatchdog(config, controller.events)
        assert watchdog.maybe_snapshot(120, controller)
        space_before = controller.state_space
        controller.state_space.coords[0] = np.nan
        controller.state_space.labels.append(controller.state_space.labels[-1])
        assert watchdog.check_and_heal(121, controller) == ["rollback"]
        # In-place restore: the mapping pipeline's reference stays valid.
        assert controller.state_space is space_before
        assert controller.mapping.state_space is space_before
        assert np.isfinite(controller.state_space.coords).all()
