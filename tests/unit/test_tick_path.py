"""The per-tick path stays on plain floats.

``ResourceVector``'s enum-keyed API (``get`` / ``items`` / ``as_dict`` /
``from_mapping`` / ``replace``) is for tests, baselines and figures. A
host tick — demand, jitter, contention, delivery, the controller's
observation and the wire records — must never go through it: at the
parent it cost 91 enum-descriptor calls a step.
"""

import pytest

from repro.service.recording import header_record, snapshot_records
from repro.sim.container import Container
from repro.sim.contention import ProportionalShareModel, WeightedWaterFillModel
from repro.sim.host import Host
from repro.sim.resources import ResourceVector
from repro.workloads.registry import make_workload
from repro.workloads.traces import wikipedia_trace

ENUM_KEYED = ("get", "items", "as_dict", "from_mapping", "replace")


def _off_the_tick(*args, **kwargs):
    raise AssertionError("the enum-keyed ResourceVector API ran inside a tick")


@pytest.mark.parametrize("model", [ProportionalShareModel, WeightedWaterFillModel])
def test_a_tick_never_touches_the_enum_keyed_api(model, monkeypatch):
    host = Host(contention=model())
    trace = wikipedia_trace(days=1, sample_seconds=2.5, seed=4)
    tenants = [
        ("webservice-mix", {"trace": trace}),
        ("cpubomb", {}),
        ("memorybomb", {"ramp_ticks": 10.0}),  # swapping well inside 60 ticks
    ]
    for i, (name, kwargs) in enumerate(tenants):
        app = make_workload(name, seed=i, **kwargs)
        host.add_container(
            Container(name=name, app=app, sensitive=i == 0, weight=1.0 + i, start_tick=3 * i)
        )
    for name in ENUM_KEYED:
        monkeypatch.setattr(ResourceVector, name, _off_the_tick)

    header = header_record(host)
    assert list(header["capacity"]) == ["cpu", "memory", "memory_bw", "disk_io", "network"]
    busy = 0
    for tick in range(60):
        if tick == 30:
            host.pause_container("cpubomb")
        snapshot = host.step()
        assert host.last_snapshot is snapshot
        observation = host.observe(snapshot)
        records = snapshot_records(snapshot, host)
        samples = {r["container"]: r["metrics"] for r in records if r["kind"] == "sample"}
        for row in observation.rows:
            assert tuple(samples[row.name].values()) == row.usage
            assert list(samples[row.name]) == list(header["capacity"])
        assert 0.0 <= snapshot.cpu_utilization(host.capacity) <= 1.0
        busy += snapshot.swap_ratio > 1.0
    assert busy and host.container("cpubomb").paused_ticks == 30


def test_the_zero_vector_is_one_shared_constant():
    assert ResourceVector.zero() is ResourceVector.zero()
    assert ResourceVector.zero() == ResourceVector()
    assert ResourceVector.zero().is_zero()
