"""``SensorGuard.inspect`` on plain floats against the parent's NumPy predicates.

The guard's four checks run on ``values.tolist()``; the parent ran five
NumPy dispatches on the same ten floats. ``ReferenceGuard`` is that code
kept verbatim, and every verdict of every sequence must match it:
accepted / imputed / reasons / stale periods and the vector handed on,
byte for byte.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.guard import SensorGuard
from tests.support.tick_reference import ReferenceGuard

BOUND = 100.0
AWKWARD = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, BOUND, math.nextafter(BOUND, math.inf),
    math.nextafter(BOUND, 0.0), -1.0, 1.0,
]
elements = st.one_of(
    st.sampled_from(AWKWARD),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=0.0, max_value=BOUND),
)


@st.composite
def sequences(draw):
    dim = draw(st.integers(1, 10))
    vector = st.lists(elements, min_size=dim, max_size=dim)
    # ``None`` repeats the previous vector: a flat reading stays accepted.
    steps = draw(st.lists(st.one_of(st.none(), vector), min_size=1, max_size=25))
    bounded = draw(st.booleans())
    return {
        "start": [1.0] * dim,
        "steps": steps,
        "plausible_max": np.full(dim, BOUND) if bounded else None,
    }


def same_bytes(ours, theirs) -> bool:
    if ours is None or theirs is None:
        return ours is None and theirs is None
    return ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=sequences())
def test_verdicts_equal_the_numpy_predicates(case):
    previous, steps = case.pop("start"), case.pop("steps")
    guard, reference = SensorGuard(**case), ReferenceGuard(**case)
    for tick, step in enumerate(steps):
        previous = previous if step is None else step
        values = np.array(previous, dtype=float)
        verdict = guard.inspect(tick, values)
        accepted, imputed, reasons, stale, handed_on = reference.inspect(tick, values.copy())
        assert (verdict.accepted, verdict.imputed, verdict.reasons, verdict.stale_periods) == (
            accepted, imputed, reasons, stale
        )
        assert same_bytes(verdict.values, handed_on)
        assert same_bytes(guard.last_good, reference._last_good)


@pytest.mark.parametrize("bound", [np.full(5, BOUND), np.full((2, 5), BOUND)])
def test_a_length_mismatch_raises_what_numpy_raises(bound):
    values = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError) as theirs:
        ReferenceGuard(plausible_max=bound).inspect(0, values)
    with pytest.raises(ValueError) as ours:
        SensorGuard(plausible_max=bound).inspect(0, values)
    assert str(ours.value) == str(theirs.value)
    # A non-finite vector never reaches the bound, at the parent or here.
    assert not SensorGuard(plausible_max=bound).inspect(0, np.array([np.nan])).accepted


@pytest.mark.parametrize("bound", [np.array(BOUND), np.array([BOUND])])
def test_a_broadcastable_bound_still_broadcasts(bound):
    for values in ([1.0, 2.0, 3.0], [1.0, BOUND + 1.0, 3.0]):
        verdict = SensorGuard(plausible_max=bound).inspect(0, np.array(values))
        theirs = ReferenceGuard(plausible_max=bound).inspect(0, np.array(values))
        assert (verdict.accepted, verdict.reasons) == (theirs[0], theirs[2])
