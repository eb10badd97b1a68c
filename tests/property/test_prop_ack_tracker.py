"""The AckTracker against a list-scan oracle.

The tracker keeps its in-flight commands in a per-container dict so a
tick's work does not grow with the length of the command log. The
oracle below is the tracker as first written — every query rescans the
whole log — and random ``submit`` / ``step`` / ``drain`` sequences over
a seeded lossy backend must produce the same deliveries in the same
order, the same ``pending_containers()`` after every call, and the same
dead letters, statuses and counters at the end.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.actuator import (
    AckTracker,
    ACK_BACKOFF,
    ACK_TIMEOUT,
    MAX_RETRIES,
    Actuator,
    ActuatorCommand,
    CommandStatus,
)


class LossyActuator(Actuator):
    """Seeded backend: acks, loses the ack or fails, and logs each try."""

    def __init__(self, seed, ack_probability):
        self.rng = random.Random(seed)
        self.ack_probability = ack_probability
        self.log = []

    def deliver(self, command, tick):
        self.log.append(
            (tick, command.command_id, command.verb, command.container, command.attempts)
        )
        if self.rng.random() < self.ack_probability:
            return True
        return None if self.rng.random() < 0.5 else False


class ListScanTracker:
    """Oracle: the same protocol, every method scanning ``commands``."""

    def __init__(self, actuator, ack_timeout, max_retries, backoff):
        self.actuator = actuator
        self.ack_timeout, self.max_retries, self.backoff = ack_timeout, max_retries, backoff
        self.commands, self.dead_letters = [], []
        self.acks = self.retries = 0

    def pending(self):
        return [c for c in self.commands if c.pending]

    def pending_containers(self):
        return {c.container: c.verb for c in self.commands if c.pending}

    def submit(self, tick, verb, container):
        for old in self.pending():
            if old.container == container:
                old.status, old.resolved_tick = CommandStatus.ACKED, tick
        command = ActuatorCommand(len(self.commands), verb, container, tick)
        self.commands.append(command)
        self._attempt(command, tick)

    def _attempt(self, command, tick):
        command.attempts += 1
        if self.actuator.deliver(command, tick) is True:
            command.status, command.resolved_tick = CommandStatus.ACKED, tick
            self.acks += 1
        else:
            wait = self.ack_timeout + self.backoff * 2 ** (command.attempts - 1)
            command.next_attempt_tick = tick + wait

    def step(self, tick):
        for command in self.commands:
            if not command.pending or tick < command.next_attempt_tick:
                continue
            if command.attempts > self.max_retries:
                self._dead_letter(command, tick)
                continue
            self.retries += 1
            self._attempt(command, tick)
            if command.pending and command.attempts > self.max_retries:
                command.next_attempt_tick = tick + self.ack_timeout

    def drain(self, tick):
        for command in self.pending():
            self.retries += 1
            self._attempt(command, tick)
            if command.pending:
                self._dead_letter(command, tick)

    def _dead_letter(self, command, tick):
        command.status, command.resolved_tick = CommandStatus.DEAD_LETTERED, tick
        self.dead_letters.append(command)


OPERATIONS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # ticks since the last call
        st.one_of(
            st.tuples(
                st.just("submit"),
                st.sampled_from(["pause", "resume"]),
                st.sampled_from(["c0", "c1", "c2", "c3"]),
            ),
            st.tuples(st.just("step")),
            st.tuples(st.just("drain")),
        ),
    ),
    max_size=80,
)


def fingerprint(command):
    return (
        command.command_id,
        command.verb,
        command.container,
        command.issued_tick,
        command.status,
        command.attempts,
        command.next_attempt_tick,
        command.resolved_tick,
    )


@settings(max_examples=150, deadline=None)
@given(
    operations=OPERATIONS,
    seed=st.integers(min_value=0, max_value=2**16),
    ack_probability=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
def test_tracker_matches_list_scan_oracle(operations, seed, ack_probability):
    dead_lettered = []
    tracker = AckTracker(
        LossyActuator(seed, ack_probability),
        on_dead_letter=lambda command, tick: dead_lettered.append(
            (command.command_id, tick)
        ),
    )
    oracle = ListScanTracker(
        LossyActuator(seed, ack_probability), ACK_TIMEOUT, MAX_RETRIES, ACK_BACKOFF
    )
    tick = 0
    submitted = []  # what ``submit`` handed back, in issue order
    for delta, (name, *args) in operations:
        tick += delta
        answer = getattr(tracker, name)(tick, *args)
        getattr(oracle, name)(tick, *args)
        if name == "submit":
            submitted.append(answer)
        assert tracker.actuator.log == oracle.actuator.log
        assert list(tracker.pending_containers().items()) == list(
            oracle.pending_containers().items()
        )
        assert [c.command_id for c in tracker.pending()] == [
            c.command_id for c in oracle.pending()
        ]

    assert [fingerprint(c) for c in submitted] == [
        fingerprint(c) for c in oracle.commands
    ]
    assert [fingerprint(c) for c in tracker.dead_letters] == [
        fingerprint(c) for c in oracle.dead_letters
    ]
    assert dead_lettered == [
        (c.command_id, c.resolved_tick) for c in oracle.dead_letters
    ]
    assert tracker.summary() == {
        "submitted": len(oracle.commands),
        "acks": oracle.acks,
        "retries": oracle.retries,
        "dead_lettered": len(oracle.dead_letters),
        "pending": len(oracle.pending()),
    }
