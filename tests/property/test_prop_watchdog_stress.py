"""The watchdog's stress memo against a full recompute.

:class:`~repro.core.model_health.ModelHealthWatchdog` keeps the map's
normalized stress as its two pair sums and, when the map only grew by
appended states, adds just those states' pair terms. Over any sequence
of appends, refits, quarantines, in-place writes and clears, the value
it checks must stay the full recompute's (to rounding), and it must sum
every pair again exactly when the map changed other than by appends.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import model_health as model_health_module
from repro.core.config import StayAwayConfig
from repro.core.events import EventLog
from repro.core.model_health import MIN_STATES_FOR_STRESS, ModelHealthWatchdog
from repro.core.state_space import StateSpace
from repro.mds.distances import pairwise_distances
from repro.mds.stress import normalized_stress

DIMENSION = 5

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 4)),
        st.tuples(
            st.sampled_from(["refit", "quarantine", "coords", "point", "clear"]),
            st.integers(0, 10**6),
        ),
    ),
    min_size=1,
    max_size=25,
)


def content(space):
    return space.coords.tobytes(), space.representatives.points.tobytes()


def apply(space, rng, operation, argument):
    """Run one operation on ``space``; returns whether it was an append."""
    n = len(space)
    if operation == "append":
        for _ in range(argument):
            space.add_sample(rng.uniform(size=DIMENSION), violated=False)
        return True
    if operation == "refit":
        space.refit()
    elif operation == "clear":
        space.clear()
    elif n and operation == "quarantine":
        space.quarantine([argument % n])
    elif n and operation == "coords":
        space.coords[argument % n, argument % 2] += 0.25
    elif n and operation == "point":
        row, column = argument % n, argument % DIMENSION
        space.representatives.points[row, column] += 0.25
    return False


@given(st.integers(0, 2**32 - 1), OPERATIONS)
@settings(max_examples=60, deadline=None)
def test_memo_equals_the_full_stress_and_sums_every_pair_only_on_other_changes(
    seed, operations
):
    rng = np.random.default_rng(seed)
    space = StateSpace()
    space.refit_interval = 10**9
    controller = SimpleNamespace(
        state_space=space,
        predictor=SimpleNamespace(modes=SimpleNamespace(models={})),
        throttle=SimpleNamespace(beta=1.0),
    )
    watchdog = ModelHealthWatchdog(StayAwayConfig(), EventLog())
    full_sums = model_health_module._stress_sums
    calls = []

    def counting(coords, points):
        calls.append(1)
        return full_sums(coords, points)

    # Grow a map the stress check reads before the sequence starts.
    apply(space, rng, "append", MIN_STATES_FOR_STRESS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_health_module, "_stress_sums", counting)
        rescore = True  # the first score sums every pair
        for tick, (operation, argument) in enumerate(operations):
            before = content(space)
            appended = apply(space, rng, operation, argument)
            rescore = rescore or (not appended and content(space) != before)
            if len(space) < MIN_STATES_FOR_STRESS:
                continue
            counted = len(calls)
            report = watchdog.inspect(tick, controller)
            assert report is None or [issue.check for issue in report.issues] == ["stress"]
            assert len(calls) - counted == int(rescore)
            rescore = False
            expected = normalized_stress(
                space.coords, pairwise_distances(space.representatives.points)
            )
            scored = len(calls)
            assert watchdog._stress(space) == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert len(calls) == scored  # the memo answers
