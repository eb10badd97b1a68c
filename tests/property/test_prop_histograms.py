"""Property-based tests for histograms and inverse-transform sampling."""

from collections import deque

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.trajectory.histograms import EmpiricalDistribution, Histogram
from repro.trajectory.sampling import TrajectoryModel
from tests.support.sampling_reference import (
    reference_cdf,
    drawn_steps,
    reference_inverse_transform,
    reference_sample_steps,
)

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
            st.tuples(st.just("add_all"), st.lists(values, max_size=12)),
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
    elif op == "add_all":
        for value in argument:
            dist.add(value)
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
            for value in values:
                dist.add(value)
            with pytest.raises(ValueError):
                dist.histogram()
            with pytest.raises(ValueError):
                dist.sample(rng, 5)
        model = TrajectoryModel(window=64)
        for value in values:
            model.angles.add(0.0)
            model.distances.add(value)
        with pytest.raises(ValueError):
            model.predict_candidates(np.zeros(2), rng, 5)


#: A current position whose coordinates are not zero: ``0.0 + -0.0``
#: would hide a step's sign.
ORIGIN = np.array([0.25, -0.5])


class TestFusedStepDraw:
    """``TrajectoryModel._draw`` draws one ``(4, n)`` block; its steps
    must be the four sequential ``(n,)`` draws it replaced, bit for bit
    and stream position included, and ``predict_candidates`` must add
    them to the current position."""

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
        steps_rng = np.random.default_rng(seed)
        for _ in range(3):  # the streams must stay in step draw after draw
            steps = drawn_steps(model, steps_rng, n)
            sequential = self.sequential_steps(model, reference_rng, n)
            assert _bits(steps) == _bits(sequential)
            candidates = model.predict_candidates(ORIGIN, rng, n)
            assert candidates.shape == (n, 2)
            assert _bits(candidates) == _bits(ORIGIN + steps)
            assert rng.bit_generator.state == reference_rng.bit_generator.state
            assert steps_rng.bit_generator.state == reference_rng.bit_generator.state

    @given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_matches_when_only_one_pdf_has_data(self, n, seed, distances_only):
        model = TrajectoryModel(window=16, bins=8)
        for value in [0.3, 0.1, 0.2]:
            (model.distances if distances_only else model.angles).add(value)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        steps_rng = np.random.default_rng(seed)
        steps = drawn_steps(model, steps_rng, n)
        assert _bits(steps) == _bits(self.sequential_steps(model, reference_rng, n))
        candidates = model.predict_candidates(ORIGIN, rng, n)
        assert _bits(candidates) == _bits(ORIGIN + steps)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert steps_rng.bit_generator.state == reference_rng.bit_generator.state


def _bits(values):
    """The IEEE bytes of a float sequence: ``-0.0`` and ``0.0`` differ here."""
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def binned_draws(draw):
    """A histogram with zero-mass bins and uniforms that sit on its seams."""
    bins = draw(st.integers(1, 64))
    counts = draw(
        st.one_of(
            st.just([0] * bins),  # nothing observed: the uniform fallback
            st.lists(
                st.one_of(st.just(0), st.integers(0, 400)), min_size=bins, max_size=bins
            ),
        )
    )
    low = draw(st.floats(-10.0, 10.0))
    hist = Histogram(low, low + draw(st.floats(1e-3, 20.0)), bins=bins)
    hist.counts[:] = counts
    plateau = st.sampled_from(reference_cdf(hist).tolist())  # exactly on the CDF
    uniform = st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, float(np.nextafter(1.0, 0.0)), 1.0]),
        plateau,
    )
    n = draw(st.integers(1, 64))
    u_bin = draw(st.lists(uniform, min_size=n, max_size=n))
    u_offset = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    return hist, u_bin, u_offset


def _plateau_histogram():
    """cdf ``[0.5, 0.5, 1.0, 1.0]``: ``u == 0.5`` sits on the plateau of an empty bin."""
    hist = Histogram(0.0, 1.0, bins=4)
    hist.counts[:] = [1, 0, 1, 0]
    return hist


class TestFloatKernelAgainstArrayReference:
    """``Histogram.inverse_transform`` runs on Python floats; the array
    chain it replaced lives on in ``tests/support/sampling_reference.py``
    and the two must agree to the last bit, stream position included."""

    @given(binned_draws())
    @example((_plateau_histogram(), [0.5, 0.0, 1.0], [0.3, 0.0, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_kernel_equals_reference_bit_for_bit(self, case):
        hist, u_bin, u_offset = case
        samples = hist.inverse_transform(u_bin, u_offset)
        assert all(type(value) is float for value in samples)
        expected = reference_inverse_transform(
            hist, np.array(u_bin), np.array(u_offset)
        ).tolist()
        # Arrays in, same floats out: the kernel takes any float sequence.
        assert _bits(hist.inverse_transform(np.array(u_bin), np.array(u_offset))) == _bits(
            samples
        )
        # A rounded-up running sum can pass 1.0 one entry before the
        # pinned last one (cdf [..., 1.0000000000000002, 1.0]). Every
        # u < 1 still has one answer there, but u == 1.0 — outside the
        # half-open range a generator draws from — does not: NumPy's
        # search starts from the previous key's bounds, so the
        # reference's own answer depends on the rest of the batch, and
        # a bisection over an unsorted list promises nothing either.
        # There the sample only has to stay inside the support.
        sorted_cdf = bool(np.all(np.diff(reference_cdf(hist)) >= 0))
        for u, sample, wanted in zip(u_bin, samples, expected):
            if u < 1.0 or sorted_cdf:
                assert _bits([sample]) == _bits([wanted])
            else:
                assert hist.low <= sample <= hist.high

    @given(
        st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)), max_size=40),
        st.integers(1, 64),
        st.integers(1, 64),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_candidates_equal_the_reference_and_leave_the_stream_where_it_did(
        self, points, n, bins, seed
    ):
        model = TrajectoryModel(window=16, bins=bins)
        for point in points:
            model.observe(np.asarray(point))
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        steps_rng = np.random.default_rng(seed)
        for _ in range(3):
            steps = drawn_steps(model, steps_rng, n)
            reference = reference_sample_steps(model, reference_rng, n)
            assert _bits(steps) == _bits(reference)
            candidates = model.predict_candidates(ORIGIN, rng, n)
            assert _bits(candidates) == _bits(ORIGIN + steps)
            assert rng.bit_generator.state == reference_rng.bit_generator.state
            assert steps_rng.bit_generator.state == reference_rng.bit_generator.state

    def test_an_empty_model_draws_nothing_and_yields_zeros(self):
        rng, untouched = np.random.default_rng(5), np.random.default_rng(5)
        steps = drawn_steps(TrajectoryModel(), rng, 7)
        assert _bits(steps) == _bits(np.zeros((7, 2)))
        candidates = TrajectoryModel().predict_candidates(ORIGIN, rng, 7)
        assert candidates.shape == (7, 2) and (candidates == ORIGIN).all()
        assert rng.bit_generator.state == untouched.bit_generator.state

    @pytest.mark.parametrize("poison", [float("nan"), float("inf")])
    def test_a_non_finite_window_raises_before_the_stream_moves(self, poison):
        model = TrajectoryModel(window=16)
        for value in [0.1, poison, 0.3]:
            model.distances.add(value)
        for value in [0.0, 0.1, 0.2]:
            model.angles.add(value)
        rng, untouched = np.random.default_rng(5), np.random.default_rng(5)
        with pytest.raises(ValueError, match="non-finite"):
            model.predict_candidates(ORIGIN, rng, 5)
        assert rng.bit_generator.state == untouched.bit_generator.state
