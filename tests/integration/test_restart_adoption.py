"""A controller replaced mid-pause hands the batch work back.

Stay-Away is the only agent on its host that pauses batch containers,
so a controller that starts next to a paused one adopts it: the
container joins the new controller's pause-set and the usual
phase-change and probe rules resume it. Without that, a restart that
lands during a pause (a restarted process, a crashed fleet cell) leaves
the batch container stopped for the rest of the run.
"""

from __future__ import annotations

import pytest

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.events import EventKind
from repro.experiments.scenarios import Scenario, batch_work
from repro.sim.engine import SimulationEngine

TICKS = 1200
SWAP_TICK = 400


class ControllerSwap:
    """Middleware that replaces its controller at ``SWAP_TICK``.

    ``restart(old)`` builds the successor; the batch work done up to the
    swap is kept for the after-the-swap total.
    """

    def __init__(self, controller, restart, batch_apps):
        self.controller = controller
        self.restart = restart
        self.batch_apps = batch_apps
        self.throttling_at_swap = None
        self.work_at_swap = None

    def on_tick(self, snapshot, host):
        if snapshot.tick == SWAP_TICK:
            self.throttling_at_swap = self.controller.throttle.throttling
            self.work_at_swap = batch_work(self.batch_apps)
            self.controller = self.restart(self.controller)
        self.controller.on_tick(snapshot, host)


def cold(old):
    return StayAway(old.sensitive_app, config=old.config)


def from_template(old):
    return StayAway(old.sensitive_app, config=old.config, template=old.export_template())


@pytest.fixture(scope="module", params=[cold, from_template], ids=["cold", "template"])
def restarted(request):
    built = Scenario("vlc-streaming", ("cpubomb",), ticks=TICKS, seed=0).build()
    first = StayAway(built.sensitive_app, config=StayAwayConfig(seed=0))
    swap = ControllerSwap(first, request.param, built.batch_apps)
    SimulationEngine(built.host, [swap]).run(ticks=TICKS)
    return swap, built


def test_the_swap_lands_during_a_pause_and_is_adopted(restarted):
    swap, built = restarted
    assert swap.throttling_at_swap
    adopted = [
        (event.tick, event.detail["targets"])
        for event in swap.controller.events.of_kind(EventKind.RECONCILE)
        if event.detail["action"] == "adopt"
    ]
    assert adopted == [(SWAP_TICK, [app.name for app in built.batch_apps])]


def test_batch_work_continues_after_the_swap(restarted):
    swap, built = restarted
    assert batch_work(built.batch_apps) - swap.work_at_swap > 0


def test_the_new_controller_resumes_what_it_adopted(restarted):
    swap, _ = restarted
    resumes = [
        event
        for event in swap.controller.events
        if event.kind in (EventKind.RESUME, EventKind.PROBE_RESUME)
    ]
    assert resumes and resumes[0].tick > SWAP_TICK
