"""Unit tests for controller checkpoint/restore."""

import json

import numpy as np
import pytest

from repro.core.checkpoint import (
    CheckpointError,
    ControllerCheckpoint,
    cleanup_stale_tmp,
    restore_checkpoint,
    save_checkpoint,
)
from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.events import EventKind
from repro.experiments.chaos import ContainmentMix, run_recovery_drill
from repro.experiments.scenarios import Scenario
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp, SensitiveStub
from tests.support.geometry_reference import violation_vote_scalar


def learned_controller(ticks=60, seed=9):
    host = Host()
    sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=3.0, memory=500.0))
    bomb = ConstantApp(name="bomb", demand_vector=ResourceVector(cpu=4.0, memory=64.0))
    host.add_container(Container(name="sens", app=sensitive, sensitive=True))
    host.add_container(Container(name="bomb", app=bomb, start_tick=5))
    controller = StayAway(sensitive, config=StayAwayConfig(seed=seed))
    engine = SimulationEngine(host, [controller])
    engine.run(ticks=ticks)
    return controller, sensitive, engine


class TestCaptureAndSerialize:
    def test_capture_reflects_learned_state(self):
        controller, _, _ = learned_controller()
        checkpoint = ControllerCheckpoint.capture(controller)
        assert checkpoint.state_count == len(controller.state_space)
        assert checkpoint.beta == controller.throttle.beta
        assert checkpoint.captured_tick == controller.trajectory[-1].tick

    def test_save_load_round_trip(self, tmp_path):
        controller, _, _ = learned_controller()
        path = save_checkpoint(controller, tmp_path / "state.ckpt")
        loaded = ControllerCheckpoint.load(path)
        assert loaded.payload == ControllerCheckpoint.capture(controller).payload

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        controller, _, _ = learned_controller()
        path = save_checkpoint(controller, tmp_path / "state.ckpt")
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []


class TestPeriodsThatDidNotMap:
    """``trajectory`` only gets a point on a mapped period; the period
    count and the default checkpoint tick must not be read off it."""

    SCENARIO = Scenario("webservice-mix", ("cpubomb", "memorybomb"), ticks=400, seed=3)

    def test_periods_and_default_tick_count_gap_periods(self):
        outage = ContainmentMix(fault_windows=((380, 400, "map"),))
        controller = run_recovery_drill(self.SCENARIO, mix=outage).controller
        assert controller.trajectory[-1].tick == 379  # the outage mapped nothing
        assert len(controller.trajectory) < 400
        assert controller.summary()["periods"] == 400
        assert controller.last_period_tick == 399
        assert ControllerCheckpoint.capture(controller).captured_tick == 399
        assert ControllerCheckpoint.capture(controller, tick=7).captured_tick == 7

    def test_a_controller_with_only_gap_periods_is_not_fresh(self):
        scenario = Scenario("webservice-mix", ("cpubomb",), ticks=12, seed=3)
        outage = ContainmentMix(fault_windows=((0, 12, "map"),))
        controller = run_recovery_drill(scenario, mix=outage).controller
        assert controller.trajectory == [] and controller.summary()["periods"] == 12
        checkpoint = ControllerCheckpoint.capture(learned_controller()[0])
        with pytest.raises(CheckpointError, match="fresh"):
            checkpoint.restore_into(controller)


class TestCorruptionDetection:
    def test_checksum_mismatch_detected(self, tmp_path):
        controller, _, _ = learned_controller()
        path = save_checkpoint(controller, tmp_path / "state.ckpt")
        envelope = json.loads(path.read_text())
        envelope["payload"]["throttle"]["beta"] = 99.0  # bit-flip
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="checksum"):
            ControllerCheckpoint.load(path)

    def test_truncated_file_detected(self, tmp_path):
        controller, _, _ = learned_controller()
        path = save_checkpoint(controller, tmp_path / "state.ckpt")
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(CheckpointError):
            ControllerCheckpoint.load(path)

    def test_wrong_format_detected(self, tmp_path):
        path = tmp_path / "not.ckpt"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(CheckpointError, match="not a Stay-Away checkpoint"):
            ControllerCheckpoint.load(path)

    def test_missing_file_wrapped_as_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="unreadable"):
            ControllerCheckpoint.load(tmp_path / "absent.ckpt")


def _nan_coordinate(payload):
    payload["state_space"]["coords"][0][0] = float("nan")


def _nan_beta(payload):
    payload["throttle"]["beta"] = float("nan")


def _unknown_mode(payload):
    payload["modes"]["warp"] = payload["modes"].pop("idle")


def _short_retry_row(payload):
    payload["throttle"]["retry"] = {"bomb": [1]}


def _missing_throttle(payload):
    del payload["throttle"]


def _unknown_label(payload):
    payload["state_space"]["labels"][0] = "maybe"


class TestEditedPayloadRejected:
    """A file whose checksum holds is still untrusted: one edited field
    must fail the load with ``CheckpointError`` and leave the fresh
    controller exactly as it was."""

    @pytest.mark.parametrize(
        "edit",
        [
            _nan_coordinate,
            _nan_beta,
            _unknown_mode,
            _short_retry_row,
            _missing_throttle,
            _unknown_label,
        ],
    )
    def test_restore_rejects_and_leaves_controller_untouched(self, tmp_path, edit):
        controller, sensitive, _ = learned_controller()
        payload = ControllerCheckpoint.capture(controller).payload
        edit(payload)
        path = ControllerCheckpoint(payload=payload).save(tmp_path / "state.ckpt")
        fresh = StayAway(sensitive, config=StayAwayConfig(seed=9))
        space = fresh.state_space
        with pytest.raises(CheckpointError):
            restore_checkpoint(fresh, path)
        assert fresh.state_space is space and len(space) == 0
        assert fresh.throttle.beta == fresh.config.beta_initial
        assert not fresh.throttle.throttling and fresh.throttle._retry == {}
        assert len(fresh.events) == 0
        assert all(
            model.steps_observed == 0 for model in fresh.predictor.modes.models.values()
        )


class TestStaleTmpCleanup:
    def test_cleanup_removes_crash_debris(self, tmp_path):
        path = tmp_path / "state.ckpt"
        stale = tmp_path / "state.ckpt.tmp"
        stale.write_text("half-written")
        assert cleanup_stale_tmp(path)
        assert not stale.exists()
        assert not cleanup_stale_tmp(path)  # idempotent

    def test_load_sweeps_stale_tmp_sibling(self, tmp_path):
        controller, _, _ = learned_controller()
        path = save_checkpoint(controller, tmp_path / "state.ckpt")
        stale = tmp_path / "state.ckpt.tmp"
        stale.write_text("debris from a crash mid-save")
        loaded = ControllerCheckpoint.load(path)
        assert not stale.exists()
        assert loaded.payload == ControllerCheckpoint.capture(controller).payload

    def test_unsupported_version_detected(self, tmp_path):
        controller, _, _ = learned_controller()
        path = save_checkpoint(controller, tmp_path / "state.ckpt")
        envelope = json.loads(path.read_text())
        envelope["version"] = 999
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="version"):
            ControllerCheckpoint.load(path)


class TestRestore:
    def test_restore_requires_fresh_controller(self):
        controller, sensitive, _ = learned_controller()
        checkpoint = ControllerCheckpoint.capture(controller)
        with pytest.raises(CheckpointError, match="fresh"):
            checkpoint.restore_into(controller)

    def test_restore_reproduces_learned_state(self, tmp_path):
        controller, sensitive, _ = learned_controller()
        path = save_checkpoint(controller, tmp_path / "state.ckpt")
        fresh = StayAway(sensitive, config=StayAwayConfig(seed=9))
        restore_checkpoint(fresh, path)
        assert len(fresh.state_space) == len(controller.state_space)
        assert fresh.throttle.beta == controller.throttle.beta
        assert fresh.state_space.labels == controller.state_space.labels
        np.testing.assert_array_equal(
            fresh.state_space.coords, controller.state_space.coords
        )
        restored = fresh.events.of_kind(EventKind.CHECKPOINT_RESTORED)
        assert len(restored) == 1
        assert restored[0].detail["states"] == len(controller.state_space)

    def test_restore_reproduces_subsequent_decisions(self, tmp_path):
        """The acceptance criterion: a restored controller makes the
        same subsequent throttle decisions as an uninterrupted one."""
        t1, t2 = 60, 60
        # Uninterrupted reference run.
        ctrl_a, _, engine_a = learned_controller(ticks=t1)
        engine_a.run(ticks=t2)
        tail_a = [
            (p.tick, p.throttling, tuple(np.round(p.coords, 9)))
            for p in ctrl_a.trajectory
            if p.tick > t1
        ]
        # Identical run interrupted at t1, checkpointed and restored.
        ctrl_b, sensitive_b, engine_b = learned_controller(ticks=t1)
        path = save_checkpoint(ctrl_b, tmp_path / "state.ckpt")
        ctrl_c = StayAway(sensitive_b, config=StayAwayConfig(seed=9))
        restore_checkpoint(ctrl_c, path)
        engine_b.middlewares = [ctrl_c]
        engine_b.run(ticks=t2)
        tail_c = [
            (p.tick, p.throttling, tuple(np.round(p.coords, 9)))
            for p in ctrl_c.trajectory
            if p.tick > t1
        ]
        assert tail_a == tail_c
        assert ctrl_a.throttle.beta == ctrl_c.throttle.beta
        assert len(ctrl_a.state_space) == len(ctrl_c.state_space)

    def test_inconsistent_payload_rejected(self, tmp_path):
        controller, sensitive, _ = learned_controller()
        checkpoint = ControllerCheckpoint.capture(controller)
        checkpoint.payload["state_space"]["labels"].append("safe")
        fresh = StayAway(sensitive, config=StayAwayConfig(seed=9))
        with pytest.raises(CheckpointError, match="inconsistent"):
            checkpoint.restore_into(fresh)

    def test_restore_yields_fresh_violation_geometry(self, tmp_path):
        # The restored space's coords/labels were written behind the
        # geometry cache; the first vote after a restore must be built
        # from the restored map, identical to the scalar reference.
        controller, sensitive, _ = learned_controller()
        path = save_checkpoint(controller, tmp_path / "state.ckpt")
        fresh = StayAway(sensitive, config=StayAwayConfig(seed=9))
        restore_checkpoint(fresh, path)
        space = fresh.state_space
        assert space.geometry_stats()["rebuilds"] == 0
        rng = np.random.default_rng(0)
        candidates = rng.uniform(-0.5, 1.5, size=(20, 2))
        assert space.violation_vote(candidates) == violation_vote_scalar(
            space, candidates
        )
        geometry = space.geometry()
        assert geometry.n_states == len(space)
        assert geometry.n_violations == int(space.violation_indices.size)

    def test_restore_carries_telemetry_into_state_space(self, tmp_path):
        controller, sensitive, _ = learned_controller()
        path = save_checkpoint(controller, tmp_path / "state.ckpt")
        fresh = StayAway(sensitive, config=StayAwayConfig(seed=9))
        restore_checkpoint(fresh, path)
        assert fresh.state_space.telemetry is fresh.telemetry
