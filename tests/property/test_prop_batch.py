"""Property-based equivalence tests: scalar vs batched engines.

Random small scenarios — traces, weights, start ticks, finite work,
both contention models, and valid-by-construction control-event
sequences — must produce *bit-identical* per-tick progress
trajectories on both engines (the scalar object loop and the pure
``BatchEngine``).
This is the contract documented in ``docs/SIMULATION.md``.

Event streams are valid by construction so that no engine raises:
pause/resume targets and migration targets are disjoint container
subsets (a pause aimed at an in-flight container would raise), event
targets carry infinite work (a stop-by-completion racing a pause
would raise), and host faults are only drawn for scenarios without
migrations (a migration endpoint dying is covered deterministically
in the unit tests).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.batch import (
    BatchEvent,
    BatchScenario,
    ContainerSpec,
    HostSpec,
    run_scenario,
    standard_scenario,
)
from repro.sim.contention import segmented_water_fill, weighted_water_fill
from repro.sim.resources import NUM_RESOURCES

# Magnitudes chosen to straddle the default host capacity
# (4 cores, 8192 MB, 10 GB/s, 150 MB/s, 1000 Mb/s) so that a few
# containers are enough to saturate rate resources and overcommit
# memory — otherwise contention and swap paths go untested.
_SCALES = np.array([3.0, 5000.0, 6000.0, 90.0, 600.0])


@st.composite
def scenarios(draw):
    n_hosts = draw(st.integers(1, 3))
    model = draw(st.sampled_from(["proportional", "waterfill"]))
    hosts = tuple(HostSpec(name=f"h{i}", model=model) for i in range(n_hosts))

    n_containers = draw(st.integers(2, 6))
    containers = []
    for j in range(n_containers):
        period = draw(st.integers(1, 6))
        seed = draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        trace = rng.uniform(0.0, 1.0, size=(period, NUM_RESOURCES)) * _SCALES
        # Some rows go fully idle so the zero-demand gate is exercised.
        trace[rng.uniform(size=period) < 0.2] = 0.0
        containers.append(
            ContainerSpec(
                name=f"c{j}",
                host=f"h{j % n_hosts}",
                trace=trace,
                weight=draw(st.sampled_from([1.0, 2.0, 3.5])),
                total_work=draw(st.sampled_from([None, 4.0, 11.0])),
                start_tick=draw(st.integers(0, 3)),
            )
        )

    events = []
    # Pause/resume and migration targets are disjoint subsets, and
    # event targets never finish (infinite work): see module docstring.
    paused = draw(st.sets(st.integers(0, n_containers - 1), max_size=2))
    migrated = draw(
        st.sets(
            st.integers(0, n_containers - 1).filter(lambda i: i not in paused),
            max_size=2 if n_hosts > 1 else 0,
        )
    )
    for j in sorted(paused | migrated):
        containers[j] = ContainerSpec(
            name=containers[j].name,
            host=containers[j].host,
            trace=containers[j].trace,
            weight=containers[j].weight,
            total_work=None,
            start_tick=0,
        )
    for j in sorted(paused):
        t_pause = draw(st.integers(1, 20))
        events.append(BatchEvent(tick=t_pause, action="pause", target=f"c{j}"))
        if draw(st.booleans()):
            t_resume = t_pause + draw(st.integers(1, 10))
            events.append(
                BatchEvent(tick=t_resume, action="resume", target=f"c{j}")
            )
    for j in sorted(migrated):
        src = j % n_hosts
        dest = draw(st.integers(0, n_hosts - 1).filter(lambda h: h != src))
        events.append(
            BatchEvent(
                tick=draw(st.integers(1, 20)),
                action="migrate",
                target=f"c{j}",
                destination=f"h{dest}",
            )
        )
    if not migrated and draw(st.booleans()):
        victim = draw(st.integers(0, n_hosts - 1))
        t_fail = draw(st.integers(1, 15))
        events.append(
            BatchEvent(tick=t_fail, action="fail_host", target=f"h{victim}")
        )
        events.append(
            BatchEvent(
                tick=t_fail + draw(st.integers(1, 10)),
                action="recover_host",
                target=f"h{victim}",
            )
        )

    ticks = draw(st.integers(10, 40))
    return BatchScenario(hosts=hosts, containers=containers, events=tuple(events)), ticks


class TestEngineEquivalenceProperties:
    @given(scenarios())
    @settings(max_examples=40, deadline=None)
    def test_batch_bit_identical_to_scalar(self, case):
        scenario, ticks = case
        reference = run_scenario(scenario, ticks, "scalar")
        batch = run_scenario(scenario, ticks, "batch")
        assert batch.container_names == reference.container_names
        assert np.array_equal(batch.trajectory, reference.trajectory)
        assert np.array_equal(batch.work_done, reference.work_done)
        assert np.array_equal(batch.running_ticks, reference.running_ticks)
        assert np.array_equal(batch.paused_ticks, reference.paused_ticks)
        assert np.array_equal(batch.pause_count, reference.pause_count)
        assert batch.states == reference.states

    @given(scenarios())
    @settings(max_examples=25, deadline=None)
    def test_batch_invariants(self, case):
        scenario, ticks = case
        result = run_scenario(scenario, ticks, "batch")
        assert result.trajectory.shape == (ticks, len(scenario.containers))
        assert (result.trajectory >= 0.0).all()
        assert (result.trajectory <= 1.0 + 1e-9).all()
        # Work is the running sum of the trajectory, by definition.
        assert np.array_equal(
            result.work_done, result.trajectory.sum(axis=0)
        ) or np.allclose(result.work_done, result.trajectory.sum(axis=0))

    @given(st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_standard_scenario_deterministic(self, seed):
        a = standard_scenario(hosts=3, containers_per_host=3, seed=seed)
        b = standard_scenario(hosts=3, containers_per_host=3, seed=seed)
        ra = run_scenario(a, 30, "batch")
        rb = run_scenario(b, 30, "batch")
        assert np.array_equal(ra.trajectory, rb.trajectory)


@st.composite
def segment_problems(draw):
    n_hosts = draw(st.integers(1, 3))
    rows = []
    for host in range(n_hosts):
        for i in range(draw(st.integers(0, 5))):
            rows.append(
                (
                    host,
                    draw(st.floats(0.0, 50.0, allow_nan=False)),
                    draw(st.floats(0.1, 20.0, allow_nan=False)),
                )
            )
    capacity = np.array(
        [draw(st.floats(0.0, 80.0, allow_nan=False)) for _ in range(n_hosts)]
    )
    return rows, capacity


class TestSegmentedWaterFillProperties:
    @given(segment_problems())
    @settings(max_examples=150)
    def test_segments_bit_identical_to_scalar_per_host(self, problem):
        rows, capacity = problem
        host_index = np.array([r[0] for r in rows], dtype=np.intp)
        demands = np.array([r[1] for r in rows])
        weights = np.array([r[2] for r in rows])
        granted = segmented_water_fill(demands, weights, host_index, capacity)
        for host in range(capacity.shape[0]):
            mask = host_index == host
            names = [f"t{i}" for i in np.nonzero(mask)[0]]
            scalar = weighted_water_fill(
                dict(zip(names, demands[mask])),
                dict(zip(names, weights[mask])),
                float(capacity[host]),
            )
            assert [scalar[name] for name in names] == list(granted[mask])

    @given(segment_problems())
    @settings(max_examples=100)
    def test_feasibility(self, problem):
        rows, capacity = problem
        if not rows:
            return
        host_index = np.array([r[0] for r in rows], dtype=np.intp)
        demands = np.array([r[1] for r in rows])
        weights = np.array([r[2] for r in rows])
        granted = segmented_water_fill(demands, weights, host_index, capacity)
        assert (granted >= -1e-9).all()
        assert (granted <= demands + 1e-6).all()
        for host in range(capacity.shape[0]):
            mask = host_index == host
            assert granted[mask].sum() <= capacity[host] + 1e-6
