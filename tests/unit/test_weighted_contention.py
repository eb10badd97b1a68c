"""Unit tests for weighted water-filling and the weighted model."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.sim.contention import WeightedWaterFillModel, weighted_water_fill
from repro.sim.resources import Resource, ResourceVector, default_host_capacity

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"

#: One saturated fill (demand 7.16 over capacity 5.5) that takes several
#: passes; printed with ``repr`` so a last-ulp difference shows.
HASHSEED_PROBE = """
from repro.sim.contention import weighted_water_fill
names = ["web-frontend", "twitter-analysis", "cpubomb", "memorybomb",
         "vlc-streaming", "soplex", "kmeans", "pagerank"]
demands = {name: 0.3 + 0.17 * i for i, name in enumerate(names)}
weights = {name: 0.1 + 0.73 * ((5 * i) % 8) for i, name in enumerate(names)}
print(repr(list(weighted_water_fill(demands, weights, 5.5).items())))
"""


class TestWeightedWaterFill:
    def test_uncontended_full_satisfaction(self):
        granted = weighted_water_fill(
            {"a": 1.0, "b": 2.0}, {}, capacity=10.0
        )
        assert granted == {"a": 1.0, "b": 2.0}

    def test_equal_weights_split_evenly(self):
        granted = weighted_water_fill({"a": 10.0, "b": 10.0}, {}, capacity=4.0)
        assert granted["a"] == pytest.approx(2.0)
        assert granted["b"] == pytest.approx(2.0)

    def test_weights_shift_the_split(self):
        granted = weighted_water_fill(
            {"a": 10.0, "b": 10.0}, {"a": 3.0, "b": 1.0}, capacity=4.0
        )
        assert granted["a"] == pytest.approx(3.0)
        assert granted["b"] == pytest.approx(1.0)

    def test_work_conserving(self):
        # Small demander fully satisfied; leftover goes to the hungry one.
        granted = weighted_water_fill({"small": 0.5, "big": 10.0}, {}, capacity=4.0)
        assert granted["small"] == pytest.approx(0.5)
        assert granted["big"] == pytest.approx(3.5)

    def test_total_never_exceeds_capacity(self):
        granted = weighted_water_fill(
            {"a": 5.0, "b": 7.0, "c": 1.0}, {"a": 2.0}, capacity=6.0
        )
        assert sum(granted.values()) <= 6.0 + 1e-9

    def test_never_grants_more_than_demand(self):
        granted = weighted_water_fill(
            {"a": 1.0, "b": 2.0}, {"a": 100.0}, capacity=10.0
        )
        assert granted["a"] <= 1.0 + 1e-12

    def test_zero_capacity(self):
        granted = weighted_water_fill({"a": 1.0}, {}, capacity=0.0)
        assert granted["a"] == 0.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            weighted_water_fill({"a": 1.0}, {}, capacity=-1.0)

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_water_fill({"a": 1.0}, {"a": 0.0}, capacity=1.0)

    def test_huge_weight_takes_whole_demand(self):
        granted = weighted_water_fill(
            {"vip": 3.0, "noise": 10.0}, {"vip": 1024.0}, capacity=4.0
        )
        assert granted["vip"] == pytest.approx(3.0, abs=1e-6)
        assert granted["noise"] == pytest.approx(1.0, abs=1e-6)

    def test_waterfill_fold_is_insertion_ordered(self):
        # Regression: the hungry set used to be a Python set of names,
        # so the fold followed string-hash order and results varied in
        # the last ulp with PYTHONHASHSEED.
        env = {**os.environ, "PYTHONPATH": str(SRC_ROOT)}
        outputs = [
            subprocess.run(
                [sys.executable, "-c", HASHSEED_PROBE],
                env={**env, "PYTHONHASHSEED": seed},
                check=True, capture_output=True, text=True, timeout=60,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0].startswith("[('web-frontend', ")
        assert outputs[0] == outputs[1]


class TestWeightedWaterFillModel:
    def test_small_tenant_fully_satisfied_under_saturation(self):
        model = WeightedWaterFillModel()
        allocations = model.resolve(
            {
                "small": ResourceVector(cpu=1.0),
                "hog": ResourceVector(cpu=8.0),
            },
            default_host_capacity(),
        )
        assert allocations["small"].progress == pytest.approx(1.0)
        assert allocations["hog"].granted.cpu == pytest.approx(3.0)

    def test_weight_boost_protects_tenant(self):
        model = WeightedWaterFillModel()
        demands = {
            "sensitive": ResourceVector(cpu=3.0),
            "bomb": ResourceVector(cpu=4.0),
        }
        equal = model.resolve(demands, default_host_capacity())
        boosted = model.resolve(
            demands, default_host_capacity(), weights={"sensitive": 100.0}
        )
        assert boosted["sensitive"].progress > equal["sensitive"].progress
        assert boosted["sensitive"].progress == pytest.approx(1.0, abs=1e-6)

    def test_weights_cannot_undo_swap_pressure(self):
        """The Q-Clouds failure mode: memory overcommit penalizes every
        memory-resident tenant regardless of shares."""
        model = WeightedWaterFillModel()
        demands = {
            "sensitive": ResourceVector(cpu=1.0, memory=5000.0),
            "hog": ResourceVector(cpu=0.5, memory=5000.0),
        }
        boosted = model.resolve(
            demands, default_host_capacity(), weights={"sensitive": 1024.0}
        )
        assert boosted["sensitive"].swap_penalty < 1.0
        assert boosted["sensitive"].progress < 0.9

    def test_swap_penalty_matches_proportional_model(self):
        from repro.sim.contention import ProportionalShareModel

        demands = {"a": ResourceVector(memory=10000.0)}
        weighted = WeightedWaterFillModel().resolve(demands, default_host_capacity())
        proportional = ProportionalShareModel().resolve(
            demands, default_host_capacity()
        )
        assert weighted["a"].swap_penalty == pytest.approx(
            proportional["a"].swap_penalty
        )

    def test_empty(self):
        assert WeightedWaterFillModel().resolve({}, default_host_capacity()) == {}

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            WeightedWaterFillModel().resolve(
                {"a": ResourceVector(cpu=-1.0)}, default_host_capacity()
            )

    def test_swap_io_shrinks_disk_pool(self):
        model = WeightedWaterFillModel()
        capacity = default_host_capacity()
        allocations = model.resolve(
            {
                "hog": ResourceVector(memory=12192.0),
                "disk": ResourceVector(disk_io=capacity.disk_io),
            },
            capacity,
        )
        assert allocations["disk"].granted.disk_io < capacity.disk_io
