"""Unit tests for the stream-transport chaos injectors.

The property that makes the three-arm drills comparable: every fault
decision is a pure function of ``(seed, tick, record key)``, so two
consumers wrapped in identically-seeded chains see the *same* fault
script regardless of how they react to it. Plus the per-class
semantics — drops lose, reorderers delay (never lose), duplicators
echo exactly once, stallers freeze scripted windows, and the ack
dropper loses acks but never the action.
"""

import math

import pytest

from repro.service.actuator import ActuatorCommand
from repro.service.stream import QueueSource
from repro.sim.faults import (
    ActuatorAckDropper,
    StreamDropper,
    StreamDuplicator,
    StreamReorderer,
    StreamStaller,
    _fault_uniform,
)


def stream(ticks, containers=("c0", "c1")):
    records = [{"kind": "header", "host": "h"}]
    for tick in range(ticks):
        for container in containers:
            records.append(
                {
                    "kind": "sample",
                    "tick": tick,
                    "host": "h",
                    "container": container,
                    "metrics": {"cpu": 1.0},
                }
            )
    return records


def drained(source, max_polls=1000):
    out = []
    polls = 0
    while not source.exhausted and polls < max_polls:
        out.extend(source.poll())
        polls += 1
    return out


def closed_queue(records):
    queue = QueueSource()
    queue.push(records)
    queue.close()
    return queue


class TestDeterminism:
    def chain(self, records, seed):
        return self.chain_over(closed_queue(records), seed)

    def chain_over(self, inner, seed):
        return StreamDuplicator(
            StreamReorderer(
                StreamDropper(inner, seed=seed, probability=0.2),
                seed=seed + 1,
                probability=0.3,
            ),
            seed=seed + 2,
            probability=0.3,
        )

    def test_same_seed_same_fault_script(self):
        records = stream(50)
        first = drained(self.chain(records, seed=7))
        second = drained(self.chain(records, seed=7))
        assert first == second

    def test_different_seed_different_script(self):
        records = stream(50)
        assert drained(self.chain(records, seed=7)) != drained(
            self.chain(records, seed=8)
        )

    def test_script_independent_of_consumer_pacing(self):
        """The fault script does not depend on poll batching or arrival order.

        One chain sees every tick before its first poll; the other sees
        one tick per poll, each tick's records in reverse order.
        """
        containers = ("c0", "c1", "c2")
        records = stream(40, containers)[1:]  # the header is never faulted
        width = len(containers)
        ticks = [records[i:i + width] for i in range(0, len(records), width)]

        def script(batches):
            queue = QueueSource()
            source = self.chain_over(queue, seed=3)
            for batch in batches:
                queue.push(batch)
                source.poll()
            queue.close()
            drained(source)
            dropper = source.inner.inner
            return [
                {(e.tick, e.kind, e.target) for e in log}
                for log in (dropper.dropped, source.inner.delayed, source.duplicated)
            ]

        eager = script([[record for tick in ticks for record in tick]])
        paced = script([list(reversed(tick)) for tick in ticks])
        assert all(eager)  # every wrapper fired
        assert eager == paced


#: 18 record keys as the stream wrappers build them ("kind|container").
KEYS = [
    f"{kind}|{container}"
    for kind in ("sample", "state", "qos")
    for container in ("vlc", "bomb", "c0", "c1", "c2", "c3")
]


def draws(salt):
    """The fixed grid: seeds 0-4 x ticks 0-1499 x the 18 keys."""
    return [
        _fault_uniform(seed, tick, key, salt)
        for seed in range(5)
        for tick in range(1500)
        for key in KEYS
    ]


@pytest.fixture(scope="module")
def grid():
    return {salt: draws(salt) for salt in (2, 4)}


class TestFaultDraw:
    """The keyed-hash draw behaves like independent uniforms on a fixed grid."""

    def test_draws_lie_in_the_unit_interval(self, grid):
        assert all(0.0 <= u < 1.0 for u in grid[2])

    def test_mean_is_one_half(self, grid):
        us = grid[2]
        sigma = math.sqrt(1 / 12 / len(us))
        assert abs(sum(us) / len(us) - 0.5) < 4 * sigma

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.3])
    def test_fire_rate_is_binomial(self, grid, p):
        us = grid[2]
        rate = sum(u < p for u in us) / len(us)
        assert abs(rate - p) < 4 * math.sqrt(p * (1 - p) / len(us))

    def test_salts_fire_independently(self, grid):
        drops = [u < 0.05 for u in grid[2]]
        dups = [u < 0.1 for u in grid[4]]
        n = len(drops)
        expected = (sum(drops) / n) * (sum(dups) / n)
        joint = sum(a and b for a, b in zip(drops, dups)) / n
        assert abs(joint - expected) < 4 * math.sqrt(expected * (1 - expected) / n)

    def test_histogram_is_flat(self, grid):
        us = grid[2]
        counts = [0] * 20
        for u in us:
            counts[int(u * 20)] += 1
        expected = len(us) / 20
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 43.8  # the 0.999 quantile of chi-square, 19 dof

    def test_reorder_delays_cover_one_to_max_delay(self):
        records = stream(1000)  # 2 000 tick-bearing records
        source = StreamReorderer(
            closed_queue(records), seed=6, probability=1.0, max_delay=3
        )
        delays = []
        poll = 0
        while not source.exhausted:
            poll += 1
            delays.extend(poll - 1 for r in source.poll() if "tick" in r)
        assert len(delays) == 2000
        assert set(delays) == {1, 2, 3}


class TestStreamDropper:
    def test_drops_are_recorded_and_lost(self):
        source = StreamDropper(closed_queue(stream(100)), seed=1, probability=0.3)
        out = drained(source)
        assert len(source.dropped) > 0
        assert len(out) == 201 - len(source.dropped)

    def test_header_never_dropped(self):
        source = StreamDropper(closed_queue(stream(50)), seed=1, probability=1.0)
        out = drained(source)
        assert [r["kind"] for r in out] == ["header"]

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            StreamDropper(QueueSource(), probability=1.5)


class TestStreamReorderer:
    def test_delayed_records_arrive_late_but_arrive(self):
        records = stream(60)
        source = StreamReorderer(
            closed_queue(records), seed=2, probability=0.5, max_delay=3
        )
        out = []
        while not source.exhausted:
            out.extend(source.poll())
        assert len(source.delayed) > 0
        assert len(out) == len(records)  # nothing lost
        ticks = [r["tick"] for r in out if "tick" in r]
        assert ticks != sorted(ticks)  # genuinely out of order

    def test_not_exhausted_while_holding(self):
        queue = closed_queue(stream(40))
        source = StreamReorderer(queue, seed=2, probability=0.9, max_delay=5)
        source.poll()  # drains queue; most records now held
        if source._held:
            assert not source.exhausted


class TestStreamDuplicator:
    def test_duplicates_echo_once_next_poll(self):
        records = stream(80)
        source = StreamDuplicator(closed_queue(records), seed=4, probability=0.4)
        out = drained(source)
        assert len(source.duplicated) > 0
        assert len(out) == len(records) + len(source.duplicated)


class TestStreamStaller:
    def test_stall_window_freezes_delivery(self):
        queue = QueueSource()
        source = StreamStaller(queue, windows=[(2, 5)])
        queue.push([{"kind": "sample", "tick": 0}])
        assert len(source.poll()) == 1  # poll 1: before window
        queue.push([{"kind": "sample", "tick": 1}])
        assert source.poll() == []  # polls 2-4 stalled
        assert source.poll() == []
        assert source.poll() == []
        assert len(source.poll()) == 1  # poll 5: released, data intact
        assert source.stalled_polls == [2, 3, 4]

    def test_window_validation(self):
        with pytest.raises(ValueError):
            StreamStaller(QueueSource(), windows=[(5, 5)])


class TestActuatorAckDropper:
    def command(self, command_id=0, attempts=1):
        command = ActuatorCommand(
            command_id=command_id, verb="pause", container="c0", issued_tick=0
        )
        command.attempts = attempts
        return command

    def test_deterministic_per_command_and_attempt(self):
        dropper = ActuatorAckDropper(seed=9, probability=0.5)
        other = ActuatorAckDropper(seed=9, probability=0.5)
        verdicts = [
            dropper(self.command(i, attempts=a), tick=i)
            for i in range(20)
            for a in (1, 2)
        ]
        again = [
            other(self.command(i, attempts=a), tick=i)
            for i in range(20)
            for a in (1, 2)
        ]
        assert verdicts == again
        assert any(verdicts) and not all(verdicts)

    def test_zero_probability_never_drops(self):
        dropper = ActuatorAckDropper(seed=9, probability=0.0)
        assert all(dropper(self.command(i), tick=i) for i in range(10))
        assert dropper.dropped_acks == []
