"""Property-based tests for histograms and inverse-transform sampling."""

from collections import deque

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.trajectory.histograms import EmpiricalDistribution, Histogram
from repro.trajectory.sampling import TrajectoryModel

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestHistogramProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_probabilities_form_a_distribution(self, values):
        hist = Histogram(-1e6, 1e6, bins=16)
        for value in values:
            hist.add(value)
        probabilities = hist.probabilities()
        assert np.all(probabilities >= 0)
        assert probabilities.sum() == np.float64(1.0) or np.isclose(
            probabilities.sum(), 1.0
        )

    @given(st.lists(finite_floats, min_size=1, max_size=100))
    def test_cdf_monotone_and_complete(self, values):
        hist = Histogram(-1e6, 1e6, bins=8)
        for value in values:
            hist.add(value)
        cdf = hist.cdf()
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] == 1.0

    @given(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=50),
        st.integers(1, 100),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_samples_stay_in_support(self, values, n, seed):
        hist = Histogram(0.0, 1.0, bins=8)
        for value in values:
            hist.add(value)
        samples = hist.sample(np.random.default_rng(seed), n)
        assert samples.shape == (n,)
        assert np.all(samples >= 0.0) and np.all(samples <= 1.0)

    @given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=5, max_size=50))
    @settings(max_examples=40)
    def test_sampling_never_draws_from_empty_bins(self, values):
        hist = Histogram(0.0, 1.0, bins=4)
        for value in values:
            hist.add(value)
        occupied = hist.counts > 0
        samples = hist.sample(np.random.default_rng(0), 200)
        for sample in samples:
            assert occupied[hist.bin_of(sample)]


class TestEmpiricalDistributionProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=300), st.integers(1, 50))
    def test_window_bound_respected(self, values, window):
        dist = EmpiricalDistribution(window=window)
        for value in values:
            dist.add(value)
        assert len(dist) == min(len(values), window)

    @given(st.lists(finite_floats, min_size=1, max_size=100))
    def test_support_covers_all_retained_samples(self, values):
        dist = EmpiricalDistribution(window=1000)
        for value in values:
            dist.add(value)
        low, high = dist.support()
        assert low <= min(values)
        assert high >= max(values) or np.isclose(high, max(values))

    @given(
        st.lists(st.floats(-100.0, 100.0, allow_nan=False), min_size=2, max_size=100),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_samples_within_observed_range(self, values, seed):
        dist = EmpiricalDistribution(window=1000, bins=8)
        for value in values:
            dist.add(value)
        low, high = dist.support()
        # A subnormal support ([0.0, 5e-324]) refuses to bin, by contract.
        assume((high - low) / dist.bins > 0.0)
        samples = dist.sample(np.random.default_rng(seed), 50)
        assert np.all(samples >= low - 1e-9)
        assert np.all(samples <= high + 1e-9)


# ---------------------------------------------------------------------------
# The array-backed window against a scalar oracle
# ---------------------------------------------------------------------------

class DequeOracle:
    """``EmpiricalDistribution`` as first written: a ``deque`` re-binned
    through one scalar :meth:`Histogram.add` per retained sample."""

    def __init__(self, window, bins, low, high):
        self.bins, self.low, self.high = bins, low, high
        self.values = deque(maxlen=window)

    def support(self):
        if self.low is not None and self.high is not None:
            return self.low, self.high
        if not self.values:
            return (0.0, 1.0)
        low = self.low if self.low is not None else float(min(self.values))
        high = self.high if self.high is not None else float(max(self.values))
        if high <= low:
            high = low + max(abs(low) * 1e-6, 1e-9)
        return low, high

    def histogram(self):
        hist = Histogram(*self.support(), bins=self.bins)
        for value in self.values:
            hist.add(value)
        return hist

    def sample(self, rng, n):
        if not self.values:
            return np.zeros(n)
        return self.histogram().sample(rng, n)

    def mean(self):
        if not self.values:
            return 0.0
        return float(np.asarray(self.values, dtype=float).mean())


# Repeated values (all-equal windows, a maximum that is evicted and
# comes back) matter as much as arbitrary ones.
window_values = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0, 3.0]),
    st.floats(-100.0, 100.0, allow_nan=False),
)


def window_ops_of(values):
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), values),
            st.tuples(st.just("extend"), st.lists(values, max_size=12)),
            st.tuples(st.just("clear"), st.none()),
        ),
        min_size=1,
        max_size=40,
    )


window_ops = window_ops_of(window_values)
poisoned_ops = window_ops_of(
    st.one_of(
        window_values,
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    )
)
supports = st.sampled_from(
    [(None, None), (0.0, None), (None, 5.0), (-np.pi, np.pi), (0.0, 1.0)]
)


def apply_op(dist, oracle, op, argument):
    if op == "add":
        dist.add(argument)
        oracle.values.append(float(argument))
    elif op == "extend":
        dist.extend(argument)
        oracle.values.extend(float(v) for v in argument)
    else:
        dist.clear()
        oracle.values.clear()


def assert_same_distribution(dist, oracle, seed, n):
    assert len(dist) == len(oracle.values)
    assert dist.support() == oracle.support()
    assert np.array_equal(dist.samples, np.asarray(oracle.values, dtype=float))
    assert dist.mean() == oracle.mean()
    try:
        want = oracle.histogram()
    except ZeroDivisionError:  # subnormal support: bin width underflows to 0
        with pytest.raises(ZeroDivisionError):
            dist.histogram()
        return
    got = dist.histogram()
    assert (got.low, got.high, got.bins) == (want.low, want.high, want.bins)
    assert np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.edges, want.edges)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(dist.sample(rng, n), oracle.sample(oracle_rng, n))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestWindowAgainstScalarOracle:
    @given(
        window_ops,
        st.integers(1, 9),
        st.sampled_from([1, 4, 16]),
        supports,
        st.integers(0, 2**32 - 1),
        st.integers(1, 7),
    )
    @settings(max_examples=150, deadline=None)
    # -1.0 over a subnormal bin width is -inf: it belongs in the edge
    # bin, where the one-pass binning puts it, not in ``int(-inf)``.
    @example(
        ops=[("add", 2.225073858507e-311), ("add", -1.0)],
        window=2,
        bins=1,
        support=(0.0, None),
        seed=0,
        n=1,
    )
    def test_every_view_matches_after_every_operation(
        self, ops, window, bins, support, seed, n
    ):
        low, high = support
        dist = EmpiricalDistribution(window=window, bins=bins, low=low, high=high)
        oracle = DequeOracle(window, bins, low, high)
        for op, argument in ops:
            apply_op(dist, oracle, op, argument)
            assert_same_distribution(dist, oracle, seed, n)

    @given(
        poisoned_ops,
        st.integers(1, 9),
        st.sampled_from([1, 4, 16]),
        supports,
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    # A NaN enters a window of three and ages out again.
    @example(
        ops=[("add", v) for v in (1.0, float("nan"), 2.0, 3.0, 4.0)],
        window=3,
        bins=4,
        support=(0.0, None),
        seed=0,
    )
    def test_finite_flag_follows_every_operation(self, ops, window, bins, support, seed):
        low, high = support
        dist = EmpiricalDistribution(window=window, bins=bins, low=low, high=high)
        oracle = DequeOracle(window, bins, low, high)
        for op, argument in ops:
            apply_op(dist, oracle, op, argument)
            assert not dist.samples.flags.writeable
            assert dist.finite == bool(np.isfinite(dist.samples).all())
            if dist.finite:
                assert_same_distribution(dist, oracle, seed, 3)
            else:
                with pytest.raises(ValueError, match="non-finite"):
                    dist.histogram()

    @given(st.lists(window_values, min_size=1, max_size=60), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_extend_equals_repeated_add(self, values, window):
        one_by_one = EmpiricalDistribution(window=window)
        for value in values:
            one_by_one.add(value)
        bulk = EmpiricalDistribution(window=window)
        bulk.extend(values[: len(values) // 2])
        bulk.extend(values[len(values) // 2 :])
        assert np.array_equal(bulk.samples, one_by_one.samples)

    @given(
        st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=30),
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_non_finite_sample_anywhere_in_the_window_raises(self, values, poison, data):
        values.insert(data.draw(st.integers(0, len(values))), poison)
        rng = np.random.default_rng(0)
        for low, high in [(None, None), (0.0, None), (-np.pi, np.pi)]:
            dist = EmpiricalDistribution(window=64, low=low, high=high)
            dist.extend(values)
            with pytest.raises(ValueError):
                dist.histogram()
            with pytest.raises(ValueError):
                dist.sample(rng, 5)
        model = TrajectoryModel(window=64)
        model.angles.extend([0.0] * len(values))
        model.distances.extend(values)
        with pytest.raises(ValueError):
            model.sample_steps(rng, 5)


class TestFusedStepDraw:
    """``sample_steps`` draws one ``(4, n)`` block; it must be the four
    sequential ``(n,)`` draws it replaced, stream position included."""

    @staticmethod
    def sequential_steps(model, rng, n):
        distances = model.distances.sample(rng, n)
        angles = model.angles.sample(rng, n)
        return np.column_stack(
            [distances * np.cos(angles), distances * np.sin(angles)]
        )

    @given(
        st.lists(
            st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)), max_size=40
        ),
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_sequential_draws(self, points, n, seed):
        model = TrajectoryModel(window=16, bins=8)
        for point in points:
            model.observe(np.asarray(point))
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):  # the streams must stay in step draw after draw
            steps = model.sample_steps(rng, n)
            assert steps.shape == (n, 2)
            assert np.array_equal(steps, self.sequential_steps(model, reference_rng, n))
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    @given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_matches_when_only_one_pdf_has_data(self, n, seed, distances_only):
        model = TrajectoryModel(window=16, bins=8)
        (model.distances if distances_only else model.angles).extend([0.3, 0.1, 0.2])
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        steps = model.sample_steps(rng, n)
        assert np.array_equal(steps, self.sequential_steps(model, reference_rng, n))
        assert rng.bit_generator.state == reference_rng.bit_generator.state
