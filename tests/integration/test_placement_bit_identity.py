"""The placement kernel on the inputs a cold-start controller gives it.

``tests/property/test_prop_kernel_identity.py`` draws its anchor maps at
random; the maps a controller builds while it learns — a few to some
seventy states, grown one placement at a time — are few among them.
This test records every ``place_point`` call of two seeded cold starts
through the binding ``StateSpace`` calls (the one the benchmark tracer
wraps) and demands the array kernel's bits for each. The streaming
server's map stays near twenty states; the CPU-bound web service's
grows past seventy, where a column-major matmul operand already gives
other last bits.
"""

import numpy as np
import pytest

from repro.core import state_space as state_space_module
from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.experiments.scenarios import Scenario
from repro.sim.engine import SimulationEngine
from tests.support.kernel_reference import reference_place_point

TICKS = 300


def recorded_placements(monkeypatch, sensitive, batch, seed=3):
    """``(anchors, deltas, args, kwargs, placed)`` of every placement of
    one cold start of ``sensitive`` next to ``batch``."""
    calls = []
    place_point = state_space_module.place_point

    def recording(anchors, deltas, *args, **kwargs):
        anchors, deltas = np.array(anchors), np.array(deltas)
        placed = place_point(anchors, deltas, *args, **kwargs)
        calls.append((anchors, deltas, args, kwargs, placed))
        return placed

    monkeypatch.setattr(state_space_module, "place_point", recording)
    built = Scenario(
        sensitive=sensitive,
        batches=(batch,),
        ticks=TICKS,
        batch_start=TICKS // 5,
        seed=seed,
    ).build()
    controller = StayAway(built.sensitive_app, config=StayAwayConfig(seed=seed))
    SimulationEngine(built.host, [controller]).run(ticks=TICKS)
    return calls


@pytest.mark.parametrize(
    "sensitive, batch, largest",
    [("vlc-streaming", "cpubomb", 15), ("webservice-cpu", "memorybomb", 60)],
)
def test_every_placement_of_a_cold_start_equals_the_array_kernel(
    monkeypatch, sensitive, batch, largest
):
    calls = recorded_placements(monkeypatch, sensitive, batch)
    # One placement a new state: the map grows through every size.
    assert max(anchors.shape[0] for anchors, *_ in calls) >= largest
    for anchors, deltas, args, kwargs, placed in calls:
        expected = reference_place_point(anchors, deltas, *args, **kwargs)
        assert placed.dtype == expected.dtype and placed.shape == expected.shape
        assert placed.tobytes() == expected.tobytes(), anchors.shape
