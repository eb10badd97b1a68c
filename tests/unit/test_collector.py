"""Unit tests for the metrics collector."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.monitoring.collector import BATCH_LOGICAL_VM, MetricsCollector
from repro.sim.container import Container
from repro.sim.host import Host
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp, SensitiveStub, reading


SRC_ROOT = Path(__file__).resolve().parents[2] / "src"

#: 400 ticks of four batch tenants folded into the logical batch VM;
#: the matrix is hashed byte for byte so a last-ulp difference shows.
HASHSEED_PROBE = """
import hashlib
import numpy as np
from repro.experiments.scenarios import Scenario
from repro.monitoring.collector import MetricsCollector
batches = ("cpubomb", "memorybomb", "soplex", "twitter-analysis")
host = Scenario("webservice-mix", batches, ticks=400, seed=3).build().host
collector = MetricsCollector()
for _ in range(400):
    collector.on_tick(host.observe(host.step()))
matrix = np.vstack([sample.values for sample in collector.samples])
print(hashlib.sha256(matrix.tobytes()).hexdigest())
"""


def build_host(batch_count=2):
    host = Host()
    sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=1.0, memory=500.0))
    host.add_container(Container(name="sens", app=sensitive, sensitive=True))
    for i in range(batch_count):
        app = ConstantApp(
            name=f"batch{i}", demand_vector=ResourceVector(cpu=0.5, memory=100.0)
        )
        host.add_container(Container(name=f"batch{i}", app=app))
    return host


class TestAggregatedCollection:
    def test_uninitialized_access_raises(self):
        collector = MetricsCollector()
        with pytest.raises(RuntimeError):
            collector.labels
        with pytest.raises(RuntimeError):
            collector.latest

    def test_vm_blocks_are_sensitive_plus_logical_batch(self):
        host = build_host()
        collector = MetricsCollector()
        collector.on_tick(host.observe(host.step()))
        assert collector.vm_names == ("sens", BATCH_LOGICAL_VM)
        assert collector.dimension == 10

    def test_batch_usage_is_summed(self):
        host = build_host(batch_count=2)
        collector = MetricsCollector()
        collector.on_tick(host.observe(host.step()))
        sample = collector.latest
        assert reading(sample, "batch:cpu") == pytest.approx(1.0)  # 2 x 0.5
        assert reading(sample, "sens:cpu") == pytest.approx(1.0)

    def test_batch_fold_is_name_ordered(self):
        # Regression: the batch names used to be a Python set, so with
        # three or more batch containers the float fold followed
        # string-hash order and the matrix varied with PYTHONHASHSEED.
        env = {**os.environ, "PYTHONPATH": str(SRC_ROOT)}
        digests = [
            subprocess.run(
                [sys.executable, "-c", HASHSEED_PROBE],
                env={**env, "PYTHONHASHSEED": seed},
                check=True, capture_output=True, text=True, timeout=120,
            ).stdout
            for seed in ("0", "1")
        ]
        assert len(digests[0].strip()) == 64
        assert digests[0] == digests[1]

    def test_samples_accumulate(self):
        host = build_host()
        collector = MetricsCollector()
        for _ in range(4):
            collector.on_tick(host.observe(host.step()))
        assert len(collector.samples) == 4
        assert [sample.dimension for sample in collector.samples] == [10] * 4

    def test_paused_batch_reads_zero(self):
        host = build_host(batch_count=1)
        collector = MetricsCollector()
        collector.on_tick(host.observe(host.step()))
        host.pause("batch0")
        collector.on_tick(host.observe(host.step()))
        assert reading(collector.latest, "batch:cpu") == 0.0
