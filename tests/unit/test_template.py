"""Unit tests for map templates."""

import numpy as np
import pytest

from repro.core.state_space import StateLabel, StateSpace
from repro.core.template import MapTemplate

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
        ],
        ids=[
            "nan-representative", "nan-coord", "inf-coord", "nan-beta", "inf-beta",
            "zero-epsilon", "negative-epsilon", "nan-epsilon", "beta-not-a-number",
            "labels-not-a-list", "coords-missing",
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
