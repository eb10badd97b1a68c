"""The per-tick path stays on plain floats.

``ResourceVector``'s enum-keyed API (``get`` / ``items`` / ``as_dict`` /
``from_mapping`` / ``replace``) is for tests, baselines and figures. A
host tick — demand, jitter, contention, delivery, the controller's
observation and the wire records — must never go through it: at the
parent it cost 91 enum-descriptor calls a step.
"""

import tracemalloc

import pytest

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.experiments.scenarios import Scenario
from repro.service import decision_sequence
from repro.service.recording import header_record, snapshot_records
from repro.sim.container import Container
from repro.sim.contention import ProportionalShareModel, WeightedWaterFillModel
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host
from repro.sim.resources import ResourceVector
from repro.trajectory.histograms import Histogram
from repro.workloads.registry import make_workload
from repro.workloads.traces import wikipedia_trace
from tests.support.recorders import record_predictions

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
            host.pause("cpubomb")
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


def test_a_stepped_host_retains_nothing_per_tick():
    """A host lives as long as the machine: what a tick produced is in
    ``step()``'s return value and ``last_snapshot``, not in a list. At
    the parent of PR 24 ``Host._history`` and the applications' rate
    series grew this loop by 2.2 MB over the same 1 200 ticks."""
    host = Scenario(
        "webservice-mix", ("cpubomb", "memorybomb"), ticks=2400, seed=3
    ).build().host
    tracemalloc.start()
    try:
        for _ in range(1200):
            host.step()
        at_1200, _ = tracemalloc.get_traced_memory()
        for _ in range(1200):
            host.step()
        at_2400, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert host.last_snapshot.tick == 2399
    assert at_2400 - at_1200 < 100_000


def test_the_zero_vector_is_one_shared_constant():
    assert ResourceVector.zero() is ResourceVector.zero()
    assert ResourceVector.zero() == ResourceVector()
    assert ResourceVector.zero().is_zero()


def _steady_run(ticks=300, seed=3000):
    """A ``host_steady``-shaped life: webservice-mix against two bombs."""
    built = Scenario(
        sensitive="webservice-mix",
        batches=("cpubomb", "memorybomb"),
        ticks=ticks,
        batch_start=60,
        seed=seed,
    ).build()
    controller = StayAway(built.sensitive_app, config=StayAwayConfig(seed=seed))
    predictions = record_predictions(controller)
    SimulationEngine(built.host, [controller]).run(ticks=ticks)
    return controller, predictions


def _off_the_period(*args, **kwargs):
    raise AssertionError("an array-returning histogram helper ran inside a period")


def test_a_period_never_touches_the_array_histogram_api(monkeypatch):
    """The predict stage draws through ``Histogram.inverse_transform`` on
    Python floats. ``probabilities`` / ``cdf`` / ``total`` return arrays
    (or reduce one) for figures and tests; at the parent of PR 23 every
    period built both, twice."""
    reference, _ = _steady_run()
    monkeypatch.setattr(Histogram, "probabilities", _off_the_period)
    monkeypatch.setattr(Histogram, "cdf", _off_the_period)
    monkeypatch.setattr(Histogram, "total", property(_off_the_period))
    controller, predictions = _steady_run()

    containment = controller.summary()["telemetry"]["containment"]
    assert containment["firewall_catches"] == 0
    assert len(controller.trajectory) == 300  # every period ran to its end
    drawn = [p for p in predictions if p.ready]
    assert len(drawn) > 250 and all(p.candidates.shape == (5, 2) for p in drawn)
    assert decision_sequence(controller) == decision_sequence(reference)
    assert decision_sequence(controller)
