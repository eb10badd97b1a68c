"""Unit tests for map templates."""

import json
import os

import numpy as np
import pytest

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.state_space import StateLabel, StateSpace
from repro.core.template import MapTemplate
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp, SensitiveStub

#: Marks a key the poisoned-dict case deletes instead of overwriting.
MISSING = object()


def make_space():
    space = StateSpace(epsilon=0.05, refit_interval=1000)
    space.add_sample(np.array([0.1, 0.1, 0.1]), violated=False)
    space.add_sample(np.array([0.5, 0.5, 0.5]), violated=False)
    space.add_sample(np.array([0.9, 0.9, 0.9]), violated=True)
    return space


class TestCaptureAndRebuild:
    def test_from_state_space(self):
        space = make_space()
        template = MapTemplate.from_state_space(space, beta=0.02, metadata={"run": 1})
        assert template.representatives.shape == (3, 3)
        assert template.coords.shape == (3, 2)
        assert template.violation_count == 1
        assert template.beta == 0.02

    def test_build_state_space_preserves_everything(self):
        space = make_space()
        template = MapTemplate.from_state_space(space, beta=0.02)
        rebuilt = template.build_state_space()
        assert len(rebuilt) == 3
        np.testing.assert_allclose(rebuilt.coords, space.coords)
        assert rebuilt.labels == space.labels
        assert rebuilt.representatives.epsilon == space.representatives.epsilon

    def test_rebuilt_space_continues_learning(self):
        template = MapTemplate.from_state_space(make_space(), beta=0.02)
        rebuilt = template.build_state_space()
        index, is_new, _ = rebuilt.add_sample(np.array([0.3, 0.0, 0.0]), violated=False)
        assert is_new
        assert index == 3

    def test_rebuilt_space_recognizes_template_states(self):
        template = MapTemplate.from_state_space(make_space(), beta=0.02)
        rebuilt = template.build_state_space()
        index, is_new, _ = rebuilt.add_sample(
            np.array([0.9, 0.9, 0.9]), violated=False
        )
        assert not is_new
        assert rebuilt.labels[index] is StateLabel.VIOLATION  # sticky

    def test_validation(self):
        with pytest.raises(ValueError):
            MapTemplate(
                representatives=np.zeros((2, 3)),
                coords=np.zeros((3, 2)),
                labels=[StateLabel.SAFE, StateLabel.SAFE],
                epsilon=0.1,
                beta=0.01,
            )
        with pytest.raises(ValueError):
            MapTemplate(
                representatives=np.zeros((2, 3)),
                coords=np.zeros((2, 2)),
                labels=[StateLabel.SAFE],
                epsilon=0.1,
                beta=0.01,
            )


class TestSerialization:
    def test_dict_roundtrip(self):
        template = MapTemplate.from_state_space(make_space(), beta=0.03,
                                                metadata={"app": "vlc"})
        restored = MapTemplate.from_dict(template.to_dict())
        np.testing.assert_allclose(restored.representatives, template.representatives)
        np.testing.assert_allclose(restored.coords, template.coords)
        assert restored.labels == template.labels
        assert restored.beta == template.beta
        assert restored.metadata == {"app": "vlc"}

    def test_file_roundtrip(self, tmp_path):
        template = MapTemplate.from_state_space(make_space(), beta=0.03)
        path = template.save(tmp_path / "template.json")
        restored = MapTemplate.load(path)
        np.testing.assert_allclose(restored.coords, template.coords)
        assert restored.labels == template.labels

    def test_save_load_round_trip(self, tmp_path):
        # A learned controller's map survives the file unchanged.
        host = Host()
        sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=3.0, memory=500.0))
        bomb = ConstantApp(name="bomb", demand_vector=ResourceVector(cpu=4.0, memory=64.0))
        host.add_container(Container(name="sens", app=sensitive, sensitive=True))
        host.add_container(Container(name="bomb", app=bomb, start_tick=5))
        controller = StayAway(sensitive, config=StayAwayConfig(seed=9))
        SimulationEngine(host, [controller]).run(ticks=80)
        template = controller.export_template(run="learned")
        assert len(template.labels) > 1
        loaded = MapTemplate.load(template.save(tmp_path / "template.json"))
        assert loaded.to_dict() == template.to_dict()

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        template = MapTemplate.from_state_space(make_space(), beta=0.03)
        path = template.save(tmp_path / "template.json")
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = MapTemplate.from_state_space(make_space(), beta=0.03).save(
            tmp_path / "template.json"
        )
        before = path.read_bytes()

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            MapTemplate.from_state_space(make_space(), beta=0.5).save(path)
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_truncated_file_detected(self, tmp_path):
        path = MapTemplate.from_state_space(make_space(), beta=0.03).save(
            tmp_path / "template.json"
        )
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ValueError):
            MapTemplate.load(path)

    def test_wrong_format_detected(self, tmp_path):
        path = tmp_path / "not-a-template.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="malformed template"):
            MapTemplate.load(path)

    def test_empty_map_round_trips(self, tmp_path):
        # A controller that has mapped nothing yet exports a template
        # with no states; it loads back, and seeds a working controller.
        sensitive = SensitiveStub()
        template = StayAway(sensitive).export_template()
        restored = MapTemplate.load(template.save(tmp_path / "empty.json"))
        assert restored.representatives.shape[0] == 0
        assert restored.coords.shape == (0, 2)
        seeded = StayAway(sensitive, config=StayAwayConfig(seed=1), template=restored)
        assert len(seeded.state_space) == 0
        assert seeded.throttle.beta == template.beta

    @pytest.mark.parametrize(
        "key, value",
        [
            ("representatives", [[0.1, 0.1, 0.1], [0.5, float("nan"), 0.5], [0.9, 0.9, 0.9]]),
            ("coords", [[0.0, 0.0], [float("nan"), 0.0], [1.0, 1.0]]),
            ("coords", [[0.0, 0.0], [float("inf"), 0.0], [1.0, 1.0]]),
            ("beta", float("nan")),
            ("beta", float("-inf")),
            ("epsilon", 0.0),
            ("epsilon", -0.05),
            ("epsilon", float("nan")),
            ("beta", None),
            ("labels", 3),
            ("coords", MISSING),
            ("representatives", 5.0),
            ("representatives", [0.1, 0.5, 0.9]),
            ("beta", 0.0),
            ("beta", -0.01),
        ],
        ids=[
            "nan-representative", "nan-coord", "inf-coord", "nan-beta", "inf-beta",
            "zero-epsilon", "negative-epsilon", "nan-epsilon", "beta-not-a-number",
            "labels-not-a-list", "coords-missing", "representatives-a-scalar",
            "representatives-one-dimensional", "zero-beta", "negative-beta",
        ],
    )
    def test_poisoned_dict_is_rejected(self, key, value):
        """A loaded map is rejected, never seeded into a live state space."""
        data = MapTemplate.from_state_space(make_space(), beta=0.03).to_dict()
        if value is MISSING:
            del data[key]
        else:
            data[key] = value
        with pytest.raises(ValueError):
            MapTemplate.from_dict(data)

    def test_json_is_plain_types(self):
        template = MapTemplate.from_state_space(make_space(), beta=0.03)
        data = template.to_dict()
        assert isinstance(data["representatives"], list)
        assert isinstance(data["labels"][0], str)
