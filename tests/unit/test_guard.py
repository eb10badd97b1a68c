"""Unit tests for the sensor guard (measurement validation + imputation)."""

import numpy as np
import pytest

from repro.monitoring.guard import STALENESS_BUDGET, GuardVerdict, RejectReason, SensorGuard


GOOD = np.array([1.0, 2.0, 3.0])


class TestAcceptance:
    def test_clean_vector_accepted(self):
        guard = SensorGuard()
        verdict = guard.inspect(0, GOOD)
        assert verdict.accepted
        assert verdict.usable
        assert not verdict.imputed
        assert verdict.reasons == ()
        np.testing.assert_array_equal(verdict.values, GOOD)
        assert guard.accepted_count == 1

    def test_last_good_tracks_accepted(self):
        guard = SensorGuard()
        guard.inspect(0, GOOD)
        np.testing.assert_array_equal(guard.last_good, GOOD)


class TestRejection:
    @pytest.mark.parametrize(
        "bad, reason",
        [
            (np.array([1.0, np.nan, 3.0]), RejectReason.NON_FINITE),
            (np.array([1.0, np.inf, 3.0]), RejectReason.NON_FINITE),
            (np.array([1.0, -0.5, 3.0]), RejectReason.NEGATIVE),
        ],
    )
    def test_bad_values_rejected(self, bad, reason):
        guard = SensorGuard()
        guard.inspect(0, GOOD)
        verdict = guard.inspect(1, bad)
        assert not verdict.accepted
        assert reason in verdict.reasons
        assert guard.reject_reasons[reason] == 1

    def test_implausible_spike_rejected(self):
        guard = SensorGuard(plausible_max=np.array([10.0, 10.0, 10.0]))
        guard.inspect(0, GOOD)
        verdict = guard.inspect(1, np.array([1.0, 2.0, 1e9]))
        assert RejectReason.IMPLAUSIBLE_SPIKE in verdict.reasons

    def test_plausibility_disabled_without_bound(self):
        guard = SensorGuard(plausible_max=None)
        assert guard.inspect(0, np.array([1e18, 1.0, 1.0])).accepted

    def test_freeze_check_off_by_default(self):
        guard = SensorGuard()
        for tick in range(20):
            assert guard.inspect(tick, GOOD).accepted


class TestImputation:
    def test_rejected_sample_imputed_from_last_good(self):
        guard = SensorGuard()
        guard.inspect(0, GOOD)
        verdict = guard.inspect(1, np.array([np.nan, 0.0, 0.0]))
        assert verdict.imputed
        assert verdict.usable
        np.testing.assert_array_equal(verdict.values, GOOD)
        assert guard.imputed_count == 1

    def test_no_last_good_means_unusable(self):
        guard = SensorGuard()
        verdict = guard.inspect(0, np.array([np.nan, 0.0, 0.0]))
        assert not verdict.usable
        assert verdict.values is None
        assert guard.unusable_count == 1

    def test_staleness_budget_exhausts(self):
        guard = SensorGuard()
        guard.inspect(0, GOOD)
        bad = np.array([np.nan, 0.0, 0.0])
        for tick in range(1, STALENESS_BUDGET + 1):
            assert guard.inspect(tick, bad).imputed
        exhausted = guard.inspect(STALENESS_BUDGET + 1, bad)
        assert not exhausted.usable
        assert exhausted.stale_periods == STALENESS_BUDGET + 1

    def test_recovery_resets_staleness(self):
        guard = SensorGuard()
        guard.inspect(0, GOOD)
        bad = np.array([np.nan, 0.0, 0.0])
        for tick in range(1, STALENESS_BUDGET + 1):
            guard.inspect(tick, bad)
        recovered = guard.inspect(STALENESS_BUDGET + 1, GOOD * 2)
        assert recovered.accepted
        assert guard.stale_periods == 0
        # Budget is available again after recovery.
        assert guard.inspect(STALENESS_BUDGET + 2, bad).imputed


class TestSummary:
    def test_summary_counts(self):
        guard = SensorGuard()
        guard.inspect(0, GOOD)
        guard.inspect(1, np.array([np.nan, 0.0, 0.0]))
        summary = guard.summary()
        assert summary["accepted"] == 1
        assert summary["rejected"] == 1
        assert summary["imputed"] == 1
        assert summary["reject_reasons"] == {"non-finite": 1}
