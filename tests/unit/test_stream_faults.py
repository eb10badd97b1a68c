"""Unit tests for the stream-transport chaos injectors.

The property that makes the three-arm drills comparable: every fault
decision is a pure function of ``(seed, tick, record key)``, so two
consumers wrapped in identically-seeded chains see the *same* fault
script regardless of how they react to it. Plus the per-class
semantics — drops lose, reorderers delay (never lose), duplicators
echo exactly once, stallers freeze scripted windows, and the ack
dropper loses acks but never the action.
"""

import pytest

from repro.service.actuator import ActuatorCommand
from repro.service.stream import QueueSource
from repro.sim.faults import (
    ActuatorAckDropper,
    StreamDropper,
    StreamDuplicator,
    StreamReorderer,
    StreamStaller,
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
        inner = closed_queue(records)
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
        """Per-record decisions do not depend on poll batching."""
        records = stream(30)
        eager = drained(StreamDropper(closed_queue(records), seed=3))
        lazy_source = StreamDropper(closed_queue(records), seed=3)
        lazy = []
        while not lazy_source.exhausted:
            lazy.extend(lazy_source.poll())
        assert eager == lazy


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
