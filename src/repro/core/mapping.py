"""The Mapping step: raw measurement vector -> labelled mapped-state.

Pipeline per period (§3.1 + §4 optimizations):

1. normalize every metric into [0, 1];
2. deduplicate against known representatives (epsilon-ball merge);
3. if the sample is new, place it on the 2-D MDS map (incremental
   placement, periodic full SMACOF refits);
4. label the state a violation-state when the sensitive application
   reported a QoS violation this period.
"""

from __future__ import annotations

from typing import List, NamedTuple

import numpy as np

from repro.core.state_space import StateLabel, StateSpace
from repro.monitoring.normalize import Normalizer
from repro.telemetry import Telemetry


class MappedSample(NamedTuple):
    """Result of mapping one measurement vector.

    Attributes
    ----------
    tick:
        Tick of the underlying sample.
    state_index:
        Index of the mapped-state in the state space.
    coords:
        2-D coordinates of the mapped-state (an owned, read-only array).
    label:
        Safe or violation, after this sample's labelling.
    is_new_state:
        True when this sample opened a new representative.
    refitted:
        True when absorbing this sample triggered a full SMACOF refit.
    """

    tick: int
    state_index: int
    coords: np.ndarray
    label: StateLabel
    is_new_state: bool
    refitted: bool


class MappingPipeline:
    """Normalization + dedup + MDS placement, with history.

    Parameters
    ----------
    normalizer:
        Maps raw metric arrays into [0, 1]^d.
    state_space:
        The shared state space (possibly pre-seeded from a template).
    telemetry:
        The :class:`~repro.telemetry.Telemetry` whose registry holds the
        ``mapping.*`` counters; the controller passes its own, a private
        disabled one by default.
    """

    def __init__(
        self, normalizer: Normalizer, state_space: StateSpace, telemetry=None
    ) -> None:
        self.normalizer = normalizer
        self.state_space = state_space
        self.history: List[MappedSample] = []
        if telemetry is None:
            telemetry = Telemetry(enabled=False)
        self._c_samples = telemetry.counter(
            "mapping.samples", help="measurement vectors mapped"
        )
        self._c_dedup_hits = telemetry.counter(
            "mapping.dedup_hits",
            help="samples merged into an existing representative (§4)",
        )
        self._c_new_states = telemetry.counter(
            "mapping.new_states", help="new representatives opened"
        )
        self._g_states = telemetry.gauge(
            "mapping.states", help="current state-space size"
        )

    def map_measurement(
        self, tick: int, values: np.ndarray, violated: bool
    ) -> MappedSample:
        """Map one raw measurement vector and record the result."""
        normalized = self.normalizer.normalize(np.asarray(values, dtype=float))
        index, is_new, refitted = self.state_space.add_sample(normalized, violated)
        # The period's one copy of the row, owned and read-only: the
        # trajectory point and the mode model keep this very array.
        coords = self.state_space.coords[index].copy()
        coords.flags.writeable = False
        sample = MappedSample(
            tick, index, coords, self.state_space.label(index), is_new, refitted
        )
        self.history.append(sample)
        self._c_samples.inc()
        if is_new:
            self._c_new_states.inc()
        else:
            self._c_dedup_hits.inc()
        self._g_states.set(len(self.state_space))
        return sample

    def dedup_hit_rate(self) -> float:
        """Fraction of mapped samples absorbed by an existing state.

        The §4 optimization in one number: how much of the stream the
        representative-sample reduction kept out of the SMACOF matrix:
        ``mapping.dedup_hits / mapping.samples``.
        """
        samples = self._c_samples.value
        return self._c_dedup_hits.value / samples if samples else 0.0
