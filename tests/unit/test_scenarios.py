"""Unit tests for scenario building and the standard runners."""

import pytest

from repro.experiments.runner import (
    run_isolated,
    run_scenario,
    run_stayaway,
    run_unmanaged,
)
from repro.experiments.scenarios import Scenario
from repro.workloads.webservice import Webservice


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(ticks=0)
        with pytest.raises(ValueError):
            Scenario(batch_start=-1)
        with pytest.raises(ValueError):
            Scenario(batches=("cpubomb",), batch_kwargs=({}, {}))

    def test_build_creates_fresh_instances(self):
        scenario = Scenario(ticks=10)
        a = scenario.build()
        b = scenario.build()
        assert a.sensitive_app is not b.sensitive_app
        assert a.host is not b.host

    def test_build_without_batch(self):
        scenario = Scenario(batches=("cpubomb",), ticks=10)
        built = scenario.build(include_batch=False)
        assert built.batch_apps == ()
        assert len(built.host.containers) == 1

    def test_batch_start_respected(self):
        scenario = Scenario(batches=("cpubomb",), batch_start=7, ticks=10)
        built = scenario.build()
        batch_containers = built.host.batch_containers()
        assert batch_containers[0].start_tick == 7

    def test_duplicate_batch_names_disambiguated(self):
        scenario = Scenario(batches=("cpubomb", "cpubomb"), ticks=10)
        built = scenario.build()
        names = {container.name for container in built.host.batch_containers()}
        assert len(names) == 2

    def test_sensitive_kwargs_forwarded(self):
        scenario = Scenario(
            sensitive="webservice-mix",
            ticks=10,
            sensitive_kwargs={"offered_tps": 500.0},
        )
        built = scenario.build()
        assert isinstance(built.sensitive_app, Webservice)
        assert built.sensitive_app.offered_tps == 500.0

    def test_default_trace_has_diurnal_range(self):
        trace = Scenario(ticks=1200).default_trace()
        values = [trace.intensity(t) for t in range(0, 1200, 25)]
        assert max(values) > 2 * min(values)


class TestRunners:
    def test_isolated_has_no_batch(self):
        result = run_isolated(Scenario(ticks=20))
        assert result.policy == "isolated"
        assert result.built.batch_apps == ()
        assert len(result.snapshots) == 20

    def test_unmanaged_runs_batch_freely(self):
        result = run_unmanaged(Scenario(batches=("cpubomb",), batch_start=0, ticks=20))
        assert result.policy == "unmanaged"
        assert result.batch_work_done() > 0

    def test_stayaway_attaches_controller(self):
        result = run_stayaway(Scenario(batches=("cpubomb",), ticks=30))
        assert result.controller is not None
        assert result.qos is result.controller.qos
        assert len(result.controller.trajectory) == 30

    def test_reactive_attaches_baseline(self):
        result = run_scenario(Scenario(batches=("cpubomb",), ticks=30), policy="reactive")
        assert result.reactive is not None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(Scenario(ticks=5), policy="nonsense")

    def test_qos_values_and_utilization_shapes(self):
        result = run_isolated(Scenario(ticks=15))
        assert result.utilization().shape == (15,)
        assert result.qos_values().shape == (15,)
        assert 0.0 <= result.violation_ratio() <= 1.0
