"""Circuit-breaker state transitions (core/breakers.py)."""

from __future__ import annotations

from repro.core.breakers import (
    COOLDOWN_TICKS,
    ERROR_BUDGET,
    BreakerBank,
    BreakerState,
    CircuitBreaker,
)
from repro.core.events import EventKind, EventLog

#: Tripped at tick 3 (three failures), the breaker holds OPEN until 18.
REOPEN = 3 + COOLDOWN_TICKS


def breaker():
    return CircuitBreaker("map", EventLog())


class TestClosed:
    def test_starts_closed_and_allows(self):
        b = breaker()
        assert b.state is BreakerState.CLOSED
        assert b.allows(0)

    def test_failures_below_budget_stay_closed(self):
        b = breaker()
        assert not b.record_failure(1)
        assert not b.record_failure(2)
        assert b.state is BreakerState.CLOSED
        assert b.allows(3)

    def test_budget_exhaustion_trips(self):
        b = breaker()
        b.record_failure(1)
        b.record_failure(2)
        assert b.record_failure(3)
        assert b.state is BreakerState.OPEN
        assert b.trip_count == 1
        assert not b.allows(4)

    def test_window_prunes_old_failures(self):
        b = breaker()
        b.record_failure(1)
        b.record_failure(2)
        # Both slide out of the 20-tick window before the third failure.
        assert not b.record_failure(30)
        assert b.state is BreakerState.CLOSED


class TestOpenAndProbing:
    def tripped(self):
        b = breaker()
        for tick in range(1, ERROR_BUDGET + 1):
            b.record_failure(tick)
        assert b.state is BreakerState.OPEN
        return b

    def closed_again(self):
        """Tripped at 3, then closed by two probes at 18 and 19."""
        b = self.tripped()
        assert b.allows(REOPEN)
        b.record_success(REOPEN)
        assert b.state is BreakerState.HALF_OPEN
        b.record_success(REOPEN + 1)
        assert b.state is BreakerState.CLOSED
        return b

    def test_open_blocks_until_cooldown(self):
        b = self.tripped()
        assert not b.allows(5)
        assert not b.allows(REOPEN - 1)

    def test_cooldown_elapse_goes_half_open_and_probes(self):
        b = self.tripped()
        assert b.allows(REOPEN)
        assert b.state is BreakerState.HALF_OPEN
        kinds = [event.kind for event in b.events.events]
        assert EventKind.BREAKER_PROBE in kinds

    def test_probe_successes_close(self):
        b = self.closed_again()
        assert b.reset_count == 1
        assert b.recovery_times() == [REOPEN + 1 - 3]

    def test_probe_failure_reopens_immediately(self):
        b = self.tripped()
        assert b.allows(REOPEN)
        assert b.record_failure(REOPEN)
        assert b.state is BreakerState.OPEN
        assert b.trip_count == 2
        assert not b.allows(REOPEN + 1)

    def test_failures_before_trip_do_not_leak_into_next_cycle(self):
        b = self.closed_again()
        # A fresh cycle needs a full budget again.
        assert not b.record_failure(REOPEN + 2)
        assert not b.record_failure(REOPEN + 3)
        assert b.record_failure(REOPEN + 4)

    def test_events_recorded(self):
        b = self.closed_again()
        kinds = [event.kind for event in b.events.events]
        assert kinds.count(EventKind.BREAKER_TRIP) == 1
        assert kinds.count(EventKind.BREAKER_RESET) == 1


class TestBank:
    def test_one_breaker_per_stage(self):
        bank = BreakerBank(EventLog())
        assert set(bank.breakers) == {"guard", "map", "predict", "act"}
        assert len({id(b) for b in bank.breakers.values()}) == 4
        cells = BreakerBank(EventLog(), stages=("cell:a", "cell:b"))
        assert set(cells.breakers) == {"cell:a", "cell:b"}

    def test_totals_and_any_open(self):
        bank = BreakerBank(EventLog())
        assert not any(breaker.open for breaker in bank.breakers.values())
        for tick in range(1, ERROR_BUDGET + 1):
            bank.get("predict").record_failure(tick)
        assert bank.total_trips == 1
        assert bank.get("predict").open
        assert not (bank.get("map").open or bank.get("act").open)
        assert bank.summary()["predict"]["trips"] == 1
