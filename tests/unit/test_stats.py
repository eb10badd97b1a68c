"""Unit tests for the statistics helpers."""

import numpy as np
import pytest

from repro.analysis.stats import (
    bootstrap_mean_ci,
    mann_whitney_u,
    summarize,
)


class TestBootstrap:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_mean_ci([])

    def test_confidence_validated(self):
        with pytest.raises(ValueError):
            bootstrap_mean_ci([1.0, 2.0], confidence=1.0)

    def test_single_value_degenerate(self):
        low, high = bootstrap_mean_ci([3.0])
        assert low == high == 3.0

    def test_interval_contains_true_mean(self):
        rng = np.random.default_rng(0)
        sample = rng.normal(5.0, 1.0, size=200)
        low, high = bootstrap_mean_ci(sample, seed=1)
        assert low < 5.0 < high or abs(sample.mean() - 5.0) > 0.2
        assert low < sample.mean() < high

    def test_interval_narrows_with_n(self):
        rng = np.random.default_rng(1)
        small = rng.normal(0, 1, size=20)
        large = rng.normal(0, 1, size=2000)
        low_s, high_s = bootstrap_mean_ci(small, seed=2)
        low_l, high_l = bootstrap_mean_ci(large, seed=2)
        assert (high_l - low_l) < (high_s - low_s)

    def test_deterministic_given_seed(self):
        sample = [1.0, 2.0, 3.0, 4.0]
        assert bootstrap_mean_ci(sample, seed=7) == bootstrap_mean_ci(sample, seed=7)


class TestSummarize:
    def test_fields(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.median == pytest.approx(2.0)
        assert stats.n == 3
        assert stats.ci_low <= stats.mean <= stats.ci_high

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestMannWhitney:
    def test_identical_distributions_high_p(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, 100)
        b = rng.normal(0, 1, 100)
        _, p = mann_whitney_u(a, b)
        assert p > 0.01

    def test_shifted_distributions_low_p(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0, 1, 100)
        b = rng.normal(2, 1, 100)
        _, p = mann_whitney_u(a, b)
        assert p < 1e-6

    def test_handles_ties(self):
        _, p = mann_whitney_u([1.0, 1.0, 2.0], [1.0, 2.0, 2.0])
        assert 0.0 <= p <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])
