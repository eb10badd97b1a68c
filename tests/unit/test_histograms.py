"""Unit tests for histograms and empirical distributions."""

import numpy as np
import pytest

from repro.trajectory.histograms import EmpiricalDistribution, Histogram


class TestHistogram:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            Histogram(1.0, 1.0)
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, bins=0)

    def test_bin_of(self):
        hist = Histogram(0.0, 1.0, bins=4)
        assert hist.bin_of(0.1) == 0
        assert hist.bin_of(0.6) == 2
        assert hist.bin_of(-5.0) == 0  # clipped
        assert hist.bin_of(5.0) == 3   # clipped

    def test_bin_of_clamps_before_truncating(self):
        # -1.0 over a subnormal bin width is -inf, which has no int.
        hist = Histogram(0.0, 2.225073858507e-311, bins=1)
        assert hist.bin_of(-1.0) == 0
        hist.add(-1.0)
        assert hist.counts.tolist() == [1.0]
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, bins=4).bin_of(float("nan"))

    def test_add_and_probabilities(self):
        hist = Histogram(0.0, 1.0, bins=2)
        hist.add(0.25)
        hist.add(0.25)
        hist.add(0.75)
        np.testing.assert_allclose(hist.probabilities(), [2 / 3, 1 / 3])
        assert hist.total == 3

    def test_uniform_when_empty(self):
        hist = Histogram(0.0, 1.0, bins=5)
        np.testing.assert_allclose(hist.probabilities(), 0.2)

    def test_weighted_add(self):
        hist = Histogram(0.0, 1.0, bins=2)
        hist.add(0.1, weight=3.0)
        hist.add(0.9, weight=1.0)
        np.testing.assert_allclose(hist.probabilities(), [0.75, 0.25])
        with pytest.raises(ValueError):
            hist.add(0.5, weight=-1.0)

    def test_cdf_ends_at_one(self):
        hist = Histogram(0.0, 1.0, bins=3)
        hist.add(0.5)
        cdf = hist.cdf()
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0)

    def test_sampling_respects_support(self, rng):
        hist = Histogram(2.0, 4.0, bins=8)
        for value in np.linspace(2.1, 3.9, 50):
            hist.add(value)
        samples = hist.sample(rng, 500)
        assert np.all(samples >= 2.0) and np.all(samples <= 4.0)

    def test_sampling_respects_mass(self, rng):
        hist = Histogram(0.0, 1.0, bins=2)
        for _ in range(90):
            hist.add(0.25)
        for _ in range(10):
            hist.add(0.75)
        samples = hist.sample(rng, 2000)
        low_fraction = np.mean(samples < 0.5)
        assert low_fraction == pytest.approx(0.9, abs=0.04)

    def test_sample_count_validated(self, rng):
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0).sample(rng, 0)

    def test_skewness_sign(self):
        right_skewed = Histogram(0.0, 10.0, bins=20)
        for value in [1.0] * 50 + [9.0] * 5:
            right_skewed.add(value)
        assert right_skewed.skewness() > 0
        symmetric = Histogram(0.0, 10.0, bins=20)
        for value in [2.0, 8.0] * 25:
            symmetric.add(value)
        assert symmetric.skewness() == pytest.approx(0.0, abs=1e-9)


class TestEmpiricalDistribution:
    def test_window_evicts_old_samples(self):
        dist = EmpiricalDistribution(window=3)
        for value in [1.0, 2.0, 3.0, 4.0]:
            dist.add(value)
        np.testing.assert_allclose(dist.samples, [2.0, 3.0, 4.0])

    def test_window_validated(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(window=0)

    def test_ready_threshold(self):
        dist = EmpiricalDistribution()
        assert not dist.ready(3)
        for value in [0.1, 0.2, 0.3]:
            dist.add(value)
        assert dist.ready(3)

    def test_support_inferred(self):
        dist = EmpiricalDistribution()
        dist.add(2.0)
        dist.add(5.0)
        assert dist.support() == (2.0, 5.0)

    def test_support_with_fixed_low(self):
        dist = EmpiricalDistribution(low=0.0)
        dist.add(5.0)
        low, high = dist.support()
        assert low == 0.0 and high == 5.0

    def test_support_degenerate_widened(self):
        dist = EmpiricalDistribution()
        dist.add(3.0)
        low, high = dist.support()
        assert high > low

    def test_empty_support_default(self):
        assert EmpiricalDistribution().support() == (0.0, 1.0)

    def test_sample_empty_returns_zeros(self, rng):
        np.testing.assert_allclose(EmpiricalDistribution().sample(rng, 4), 0.0)

    def test_sample_tracks_distribution(self, rng):
        dist = EmpiricalDistribution(window=1000, bins=10)
        data = rng.normal(5.0, 1.0, size=500)
        for value in data:
            dist.add(value)
        samples = dist.sample(rng, 2000)
        assert samples.mean() == pytest.approx(data.mean(), abs=0.2)

    def test_mean(self):
        dist = EmpiricalDistribution()
        assert dist.mean() == 0.0
        dist.add(2.0)
        dist.add(4.0)
        assert dist.mean() == pytest.approx(3.0)

    def test_sample_count_validated_before_and_after_first_observation(self, rng):
        # Regression: an empty distribution answered n=0 with an empty
        # array and only started rejecting it once something was observed.
        dist = EmpiricalDistribution()
        with pytest.raises(ValueError, match="n must be >= 1"):
            dist.sample(rng, 0)
        dist.add(1.0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            dist.sample(rng, 0)

    def test_bins_validated_at_construction(self):
        # Regression: bins=0 constructed fine and failed at the first histogram().
        with pytest.raises(ValueError, match="bins must be >= 1"):
            EmpiricalDistribution(bins=0)

    def test_clear_forgets_everything(self):
        dist = EmpiricalDistribution(window=4)
        for value in [1.0, 2.0, 3.0]:
            dist.add(value)
        dist.clear()
        assert len(dist) == 0 and dist.samples.size == 0
        assert dist.support() == (0.0, 1.0)
        dist.add(7.0)
        np.testing.assert_array_equal(dist.samples, [7.0])

    def test_samples_view_is_read_only(self):
        dist = EmpiricalDistribution()
        dist.add(1.0)
        assert not dist.samples.flags.writeable
        with pytest.raises(ValueError):
            dist.samples[0] = 2.0

    def test_histograms_own_their_counts(self):
        dist = EmpiricalDistribution(bins=2, low=0.0, high=1.0)
        for value in [0.1, 0.9]:
            dist.add(value)
        first = dist.histogram()
        first.counts[0] = 99.0
        dist.add(0.2)
        np.testing.assert_array_equal(dist.histogram().counts, [2.0, 1.0])
        np.testing.assert_array_equal(first.counts, [99.0, 1.0])

    def test_counts_follow_adds_and_evictions_without_rebinning(self):
        dist = EmpiricalDistribution(window=3, bins=2, low=0.0, high=1.0)
        for value in [0.1, 0.2, 0.9]:
            dist.add(value)
        np.testing.assert_array_equal(dist.histogram().counts, [2.0, 1.0])
        dist.add(0.8)  # evicts 0.1
        dist.add(0.7)  # evicts 0.2
        np.testing.assert_array_equal(dist.histogram().counts, [0.0, 3.0])
        assert dist._rebins == 1

    def test_moving_an_inferred_bound_rebins(self):
        dist = EmpiricalDistribution(window=3, bins=2, low=0.0)
        for value in [1.0, 2.0, 4.0]:
            dist.add(value)
        dist.histogram()
        dist.add(3.0)  # inside the support, evicts 1.0: counts kept
        np.testing.assert_array_equal(dist.histogram().counts, [0.0, 3.0])
        assert dist._rebins == 1
        dist.add(8.0)  # a new maximum
        assert dist.histogram().high == 8.0 and dist._rebins == 2
        for value in [1.0, 1.0]:  # window [8, 1, 1], inside the support
            dist.add(value)
        dist.histogram()
        assert dist._rebins == 2
        dist.add(2.0)  # evicts the maximum
        hist = dist.histogram()
        assert hist.high == 2.0 and dist._rebins == 3
        np.testing.assert_array_equal(hist.counts, [0.0, 3.0])

    def test_widened_degenerate_support_is_never_kept(self):
        dist = EmpiricalDistribution(bins=2, low=0.0)
        for value in [0.0, 0.0]:
            dist.add(value)
        assert dist.histogram().high == 1e-9
        dist.add(5e-10)  # inside the widened range, yet the maximum moved
        hist = dist.histogram()
        assert hist.high == 5e-10
        np.testing.assert_array_equal(hist.counts, [2.0, 1.0])

    def test_finite_is_a_running_count(self):
        dist = EmpiricalDistribution(window=2)
        assert dist.finite
        dist.add(1.0)
        dist.add(float("inf"))
        assert not dist.finite
        dist.add(2.0)
        assert not dist.finite  # window [inf, 2]
        dist.add(3.0)
        assert dist.finite
        dist.add(float("nan"))
        assert not dist.finite
        dist.clear()
        assert dist.finite

    @pytest.mark.parametrize("poison", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("fixed", [{}, {"low": 0.0}, {"low": -1.0, "high": 1.0}])
    def test_non_finite_window_raises(self, rng, poison, fixed):
        dist = EmpiricalDistribution(**fixed)
        for value in [0.1, 0.2, 0.3]:
            dist.add(value)
        dist.add(poison)
        with pytest.raises(ValueError, match="non-finite"):
            dist.histogram()
        with pytest.raises(ValueError, match="non-finite"):
            dist.sample(rng, 3)

    def test_quotients_beyond_the_integer_range_land_in_the_edge_bins(self):
        # (1.0 - 0) / 2.5e-301 has no int64 value; the scalar path clamps
        # Python's big int, the array path must not cast it first.
        values = [1.0, -1.0, 6e-301]
        dist = EmpiricalDistribution(bins=4, low=0.0, high=1e-300)
        for value in values:
            dist.add(value)
        oracle = Histogram(0.0, 1e-300, bins=4)
        for value in values:
            oracle.add(value)
        np.testing.assert_array_equal(dist.histogram().counts, oracle.counts)
        np.testing.assert_array_equal(oracle.counts, [1.0, 0.0, 1.0, 1.0])

    def test_subnormal_support_raises_like_the_scalar_path(self):
        dist = EmpiricalDistribution(bins=4, low=0.0)
        dist.add(5e-324)  # bin width 5e-324 / 4 underflows to 0.0
        with pytest.raises(ZeroDivisionError):
            Histogram(*dist.support(), bins=4).add(5e-324)
        with pytest.raises(ZeroDivisionError):
            dist.histogram()

    def test_histogram_edges_follow_the_support(self):
        dist = EmpiricalDistribution(bins=4, low=0.0)
        for value in [1.0, 2.0]:
            dist.add(value)
        first = dist.histogram()
        assert dist.histogram().edges is first.edges  # support unchanged: reused
        dist.add(4.0)
        moved = dist.histogram()
        np.testing.assert_array_equal(moved.edges, np.linspace(0.0, 4.0, 5))
        np.testing.assert_array_equal(first.edges, np.linspace(0.0, 2.0, 5))


class FixedUniformRng:
    """Test double: ``uniform`` replays a fixed sequence of values."""

    def __init__(self, values):
        self._values = list(values)

    def uniform(self, low, high, size=1):
        out = np.asarray(self._values[:size], dtype=float)
        self._values = self._values[size:]
        return out


class TestInverseTransformEdgeCases:
    """Regressions for the ``searchsorted`` side fix.

    With ``side="left"``, ``u == 0.0`` (reachable: ``rng.uniform`` is
    half-open ``[0, 1)``) and exact CDF-plateau hits selected zero-mass
    bins.
    """

    def test_u_zero_never_selects_empty_leading_bin(self):
        hist = Histogram(0.0, 1.0, bins=4)
        hist.add(0.6)  # all mass in bin 2; bins 0-1 are empty
        fake = FixedUniformRng([0.0, 0.3])  # u == 0.0, then the within-bin draw
        sample = hist.sample(fake, 1)
        assert hist.bin_of(float(sample[0])) == 2

    def test_cdf_plateau_hit_never_selects_empty_middle_bin(self):
        hist = Histogram(0.0, 1.0, bins=4)
        hist.add(0.1)  # bin 0: mass 0.5 -> cdf [0.5, 0.5, 1.0, 1.0]
        hist.add(0.6)  # bin 2: mass 0.5; bin 1 is an empty plateau bin
        fake = FixedUniformRng([0.5, 0.3])  # u lands exactly on the plateau
        sample = hist.sample(fake, 1)
        assert hist.bin_of(float(sample[0])) == 2

    def test_empty_bins_never_sampled(self, rng):
        hist = Histogram(0.0, 1.0, bins=5)
        for _ in range(40):
            hist.add(0.3)  # bin 1
        for _ in range(60):
            hist.add(0.9)  # bin 4
        samples = hist.sample(rng, 3000)
        bins = {hist.bin_of(float(value)) for value in samples}
        assert bins <= {1, 4}

    def test_u_just_below_one_stays_in_last_nonempty_bin(self):
        hist = Histogram(0.0, 1.0, bins=3)
        hist.add(0.5)  # bin 1 only; bin 2 empty
        fake = FixedUniformRng([np.nextafter(1.0, 0.0), 0.5])
        sample = hist.sample(fake, 1)
        assert hist.bin_of(float(sample[0])) == 1
