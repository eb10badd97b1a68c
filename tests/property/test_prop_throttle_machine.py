"""Stateful property testing of the throttle manager.

Drives :class:`~repro.core.action.ThrottleManager` through random
sequences of periods — arbitrary combinations of predicted/observed
violations, phase-change distances, batch arrivals/departures — and
checks the state-machine invariants after every step:

* manager.throttling <=> some batch container it paused is paused;
* the sensitive container is never paused;
* counters are consistent (resumes <= throttles, probes <= resumes);
* beta never decreases.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.action import ThrottleManager
from repro.core.config import StayAwayConfig
from repro.core.events import EventLog
from repro.sim.container import Container
from repro.sim.host import Host
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp, SensitiveStub


class ThrottleMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.host = Host()
        self.host.add_container(
            Container(name="sens", app=SensitiveStub(), sensitive=True)
        )
        self._batch_counter = 0
        self._add_batch()
        self.host.step()
        self.manager = ThrottleManager(
            StayAwayConfig(
                starvation_patience=3, probe_probability=0.5, seed=7
            ),
            EventLog(),
        )
        self.tick = 0
        self._last_beta = self.manager.beta

    def _add_batch(self):
        name = f"b{self._batch_counter}"
        self._batch_counter += 1
        container = Container(
            name=name,
            app=ConstantApp(name=name, demand_vector=ResourceVector(cpu=1.0)),
        )
        self.host.add_container(container)
        container.start()
        return name

    # -- rules ------------------------------------------------------------
    @rule(
        impending=st.booleans(),
        observed=st.booleans(),
        distance=st.one_of(st.none(), st.floats(0.0, 0.2)),
    )
    def step_period(self, impending, observed, distance):
        self.manager.step(
            self.tick,
            self.host.observe(self.host.last_snapshot),
            self.host,
            impending_violation=impending,
            observed_violation=observed,
            sensitive_step_distance=distance,
        )
        self.tick += 1

    @rule()
    def batch_arrives(self):
        self._add_batch()

    @rule(index=st.integers(0, 10))
    def batch_finishes(self, index):
        batch = [
            container for container in self.host.batch_containers()
            if container.is_running or container.is_paused
        ]
        if batch:
            batch[index % len(batch)].stop()

    @rule(index=st.integers(0, 10))
    def operator_resumes_someone(self, index):
        """An external agent resumes a paused container behind the
        manager's back; the manager must stay consistent."""
        paused = [
            container for container in self.host.batch_containers()
            if container.is_paused
        ]
        if paused:
            paused[index % len(paused)].resume()

    # -- invariants ----------------------------------------------------------
    @invariant()
    def sensitive_never_paused(self):
        assert self.host.container("sens").pause_count == 0

    @invariant()
    def counters_consistent(self):
        manager = self.manager
        assert manager.resume_count <= manager.throttle_count
        assert manager.probe_resume_count <= manager.resume_count

    @invariant()
    def beta_monotone(self):
        assert self.manager.beta >= self._last_beta - 1e-12
        self._last_beta = self.manager.beta

    @invariant()
    def throttling_flag_not_stuck_without_targets(self):
        # If the manager believes it is throttling, at least one of the
        # containers it paused should still exist as paused — unless an
        # external actor resumed them, in which case the next step()
        # must clear the flag; we allow one period of lag by checking
        # only the stable condition: no paused batch containers AND
        # manager not throttling => consistent idle state.
        if not self.manager.throttling:
            # The manager never leaves ITS OWN pauses behind. (Paused
            # containers could only come from the external operator
            # rule, which only resumes.)
            for container in self.host.batch_containers():
                assert not container.is_paused


TestThrottleMachine = ThrottleMachine.TestCase
TestThrottleMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
