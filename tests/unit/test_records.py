"""The package's value records are tuples.

Per-tick records (a guard verdict, a mapped sample, a prediction, a
fleet score, a closed stream tick, ...) and the other immutable records
are ``NamedTuple`` classes: each must refuse attribute writes, answer
``_replace`` with a new record, and be equal whether it was built by
keyword or by position. A frozen dataclass is kept only where a class
validates in ``__post_init__``, has a mutable default, is handed to the
``dataclasses`` API or is a run's configuration; that list is pinned
below, so a new frozen dataclass has to say which it is.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil

import pytest

import repro
from repro.analysis.accuracy import AccuracySummary
from repro.analysis.stats import SummaryStats
from repro.analysis.utilization import UtilizationComparison
from repro.baselines.static_profiling import StaticProfile
from repro.core.controller import TrajectoryPoint
from repro.core.mapping import MappedSample
from repro.core.model_health import HealthIssue, HealthReport
from repro.core.prediction import AccuracyRecord, Prediction
from repro.core.state_space import ViolationGeometry
from repro.experiments.chaos import InvariantBreach
from repro.experiments.scenarios import BuiltScenario
from repro.fleet.scoring import HostScore
from repro.mds.smacof import SmacofResult
from repro.monitoring.guard import GuardVerdict
from repro.service.actuator import RecordedAction
from repro.service.assembler import ClosedTick
from repro.service.stream import PromSample
from repro.sim.cluster import ContainerLocation, HostEvent
from repro.sim.faults import FaultEvent
from repro.sim.scheduler import Placement, PlacementRequest

RECORDS = [
    AccuracyRecord,
    AccuracySummary,
    BuiltScenario,
    ClosedTick,
    ContainerLocation,
    FaultEvent,
    GuardVerdict,
    HealthIssue,
    HealthReport,
    HostEvent,
    HostScore,
    InvariantBreach,
    MappedSample,
    Placement,
    PlacementRequest,
    Prediction,
    PromSample,
    RecordedAction,
    SmacofResult,
    StaticProfile,
    SummaryStats,
    TrajectoryPoint,
    UtilizationComparison,
    ViolationGeometry,
]

#: The frozen dataclasses that stay dataclasses, and why.
KEPT_FROZEN = {
    "MeasurementVector": "validates in __post_init__",
    "Phase": "validates in __post_init__",
    "Scenario": "validates in __post_init__",
    "FleetMix": "validates in __post_init__",
    "PrioritizedApp": "validates in __post_init__",
    "Event": "mutable default (its detail dict)",
    "ChaosMix": "a drill's knobs: a config, as StayAwayConfig is",
    "ContainmentMix": "a drill's knobs: a config, as StayAwayConfig is",
    "StreamChaosMix": "a drill's knobs: a config, as StayAwayConfig is",
    "ControllerCrash": "serialized with dataclasses.asdict",
}


def fields_of(record_type):
    """One distinct sentinel per field: equal only to itself."""
    return [object() for _ in record_type._fields]


@pytest.mark.parametrize("record_type", RECORDS, ids=lambda t: t.__name__)
class TestRecord:
    def test_is_a_named_tuple(self, record_type):
        assert issubclass(record_type, tuple)
        assert not dataclasses.is_dataclass(record_type)

    def test_keyword_and_positional_builds_are_equal(self, record_type):
        values = fields_of(record_type)
        by_keyword = record_type(**dict(zip(record_type._fields, values)))
        by_position = record_type(*values)
        assert by_keyword == by_position
        assert tuple(by_position) == tuple(values)
        for name, value in zip(record_type._fields, values):
            assert getattr(by_position, name) is value

    def test_is_immutable(self, record_type):
        record = record_type(*fields_of(record_type))
        for name in record_type._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_replace_builds_a_new_record(self, record_type):
        values = fields_of(record_type)
        record = record_type(*values)
        name = record_type._fields[-1]
        replacement = object()
        changed = record._replace(**{name: replacement})
        assert getattr(changed, name) is replacement
        assert tuple(changed)[:-1] == tuple(values)[:-1]
        assert tuple(record) == tuple(values)


def test_every_other_frozen_dataclass_says_why_it_stays_one():
    frozen = set()
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        if module_info.name.endswith("__main__"):
            continue
        module = importlib.import_module(module_info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and dataclasses.is_dataclass(value)
                and value.__dataclass_params__.frozen
            ):
                frozen.add(value.__name__)
    assert frozen == set(KEPT_FROZEN)
