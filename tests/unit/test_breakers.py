"""Circuit-breaker state transitions (core/breakers.py)."""

from __future__ import annotations

import pytest

from repro.core.breakers import BreakerBank, BreakerState, CircuitBreaker
from repro.core.config import StayAwayConfig
from repro.core.events import EventKind, EventLog


def breaker(**kwargs):
    defaults = dict(error_budget=3, window_ticks=20, cooldown_ticks=10, probes=2)
    defaults.update(kwargs)
    return CircuitBreaker("map", EventLog(), **defaults)


class TestClosed:
    def test_starts_closed_and_allows(self):
        b = breaker()
        assert b.state is BreakerState.CLOSED
        assert b.allows(0)

    def test_failures_below_budget_stay_closed(self):
        b = breaker(error_budget=3)
        assert not b.record_failure(1)
        assert not b.record_failure(2)
        assert b.state is BreakerState.CLOSED
        assert b.allows(3)

    def test_budget_exhaustion_trips(self):
        b = breaker(error_budget=3)
        b.record_failure(1)
        b.record_failure(2)
        assert b.record_failure(3)
        assert b.state is BreakerState.OPEN
        assert b.trip_count == 1
        assert not b.allows(4)

    def test_window_prunes_old_failures(self):
        b = breaker(error_budget=3, window_ticks=10)
        b.record_failure(1)
        b.record_failure(2)
        # Both slide out of the window before the third failure.
        assert not b.record_failure(30)
        assert b.state is BreakerState.CLOSED


class TestOpenAndProbing:
    def tripped(self, **kwargs):
        b = breaker(**kwargs)
        for tick in range(1, b.error_budget + 1):
            b.record_failure(tick)
        assert b.state is BreakerState.OPEN
        return b

    def test_open_blocks_until_cooldown(self):
        b = self.tripped(cooldown_ticks=10)
        assert not b.allows(5)
        assert not b.allows(12)  # tripped at 3, opens until 13

    def test_cooldown_elapse_goes_half_open_and_probes(self):
        b = self.tripped(cooldown_ticks=10)
        assert b.allows(13)
        assert b.state is BreakerState.HALF_OPEN
        kinds = [event.kind for event in b.events.events]
        assert EventKind.BREAKER_PROBE in kinds

    def test_probe_successes_close(self):
        b = self.tripped(cooldown_ticks=10, probes=2)
        assert b.allows(13)
        b.record_success(13)
        assert b.state is BreakerState.HALF_OPEN
        b.record_success(14)
        assert b.state is BreakerState.CLOSED
        assert b.reset_count == 1
        assert b.recovery_times() == [11]  # tripped at 3, reset at 14

    def test_probe_failure_reopens_immediately(self):
        b = self.tripped(cooldown_ticks=10)
        assert b.allows(13)
        assert b.record_failure(13)
        assert b.state is BreakerState.OPEN
        assert b.trip_count == 2
        assert not b.allows(14)

    def test_failures_before_trip_do_not_leak_into_next_cycle(self):
        b = self.tripped(cooldown_ticks=10, probes=1)
        assert b.allows(13)
        b.record_success(13)
        assert b.state is BreakerState.CLOSED
        # A fresh cycle needs a full budget again.
        assert not b.record_failure(14)
        assert not b.record_failure(15)
        assert b.record_failure(16)

    def test_events_recorded(self):
        b = self.tripped(cooldown_ticks=10, probes=1)
        b.allows(13)
        b.record_success(13)
        kinds = [event.kind for event in b.events.events]
        assert kinds.count(EventKind.BREAKER_TRIP) == 1
        assert kinds.count(EventKind.BREAKER_RESET) == 1


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"error_budget": 0},
            {"window_ticks": 0},
            {"cooldown_ticks": 0},
            {"probes": 0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            breaker(**kwargs)


class TestBank:
    def test_one_breaker_per_stage_with_config_knobs(self):
        config = StayAwayConfig(
            breaker_error_budget=2, breaker_window=5, breaker_cooldown=4
        )
        bank = BreakerBank(config, EventLog())
        assert set(bank.breakers) == {"guard", "map", "predict", "act"}
        b = bank.get("map")
        assert b.error_budget == 2
        assert b.window_ticks == 5 * config.period
        assert b.cooldown_ticks == 4 * config.period

    def test_totals_and_any_open(self):
        config = StayAwayConfig(breaker_error_budget=1)
        bank = BreakerBank(config, EventLog())
        assert not any(breaker.open for breaker in bank.breakers.values())
        bank.get("predict").record_failure(1)
        assert bank.total_trips == 1
        assert bank.get("predict").open
        assert not (bank.get("map").open or bank.get("act").open)
        assert bank.summary()["predict"]["trips"] == 1
