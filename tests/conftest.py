"""Shared fixtures for the Stay-Away reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.clock import SimulationClock
from repro.sim.container import Container
from repro.sim.host import Host
from repro.sim.resources import ResourceVector
from repro.workloads.base import Application, ApplicationKind, QosReport


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def clock() -> SimulationClock:
    return SimulationClock()


class ConstantApp(Application):
    """Test double: a batch app with a fixed demand vector."""

    def __init__(
        self,
        name: str = "constant",
        demand_vector: ResourceVector = ResourceVector(cpu=1.0, memory=100.0),
        total_work: float | None = None,
        kind: ApplicationKind = ApplicationKind.BATCH,
    ) -> None:
        super().__init__(name=name, kind=kind, noise_std=0.0)
        self.demand_vector = demand_vector
        self.total_work = total_work

    def demand(self, clock):
        if self.finished:
            return ResourceVector.zero()
        return self.demand_vector

    def _on_advance(self, allocation, clock):
        if self.total_work is not None and self.work_done >= self.total_work:
            self._finish()


class SensitiveStub(Application):
    """Test double: a sensitive app reporting QoS = granted progress."""

    def __init__(
        self,
        name: str = "sensitive-stub",
        demand_vector: ResourceVector = ResourceVector(cpu=2.0, memory=500.0),
        qos_threshold: float = 0.9,
    ) -> None:
        super().__init__(name=name, kind=ApplicationKind.SENSITIVE, noise_std=0.0)
        self.demand_vector = demand_vector
        self.qos_threshold = qos_threshold
        self._report: QosReport | None = None

    def demand(self, clock):
        return self.demand_vector

    def _on_advance(self, allocation, clock):
        self._report = QosReport(
            value=allocation.progress, threshold=self.qos_threshold
        )

    def qos_report(self):
        return self._report


class CountingApp:
    """ApplicationLike that counts demand() probes (RNG stand-in)."""

    def __init__(self, name="probe", memory=512.0):
        self.name = name
        self.demand_calls = 0
        self.work_done = 0.0
        self._vector = ResourceVector(cpu=1.0, memory=memory)

    def demand(self, clock):
        self.demand_calls += 1
        return self._vector

    def advance(self, allocation, clock):
        self.work_done += allocation.progress

    @property
    def finished(self):
        return False


def observed(host: Host):
    """The host as a controller reads it right now: live lifecycle
    state, the usage of the last tick stepped."""
    return host.observe(host.last_snapshot)


def reading(vector, label: str) -> float:
    """One labelled metric of a ``MeasurementVector``."""
    return float(vector.values[vector.labels.index(label)])


@pytest.fixture
def constant_app() -> ConstantApp:
    return ConstantApp()

@pytest.fixture
def sensitive_stub() -> SensitiveStub:
    return SensitiveStub()


@pytest.fixture
def host() -> Host:
    return Host()


@pytest.fixture
def loaded_host(sensitive_stub, constant_app) -> Host:
    """A host with one sensitive and one batch container, both running."""
    host = Host()
    host.add_container(
        Container(name=sensitive_stub.name, app=sensitive_stub, sensitive=True)
    )
    host.add_container(Container(name=constant_app.name, app=constant_app))
    return host
