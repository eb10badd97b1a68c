"""Per-host interference scoring.

One number per host answering "how dangerous is this machine for
sensitive work right now?", combining the three signals the rest of
the repo already produces:

* **predicted** — the host controller's predicted violation
  probability (prediction votes / sample count, §3.2.3), the leading
  indicator;
* **qos** — an EWMA of the observed violation indicator, the lagging
  ground truth that keeps scoring honest when a controller's model is
  degraded or its cell is serving the reactive fallback;
* **utilization** — machine CPU utilization, the tie-breaker that
  spreads load even before anything goes wrong.

All three are smoothed with the same EWMA weight (``SMOOTHING``) so a
single noisy tick cannot flip a placement decision; the hot/cold
thresholds in :mod:`repro.fleet.coordinator` add a hysteresis band on
top. Scores live in ``[0, 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: Weight of the predicted-violation term in the total score.
WEIGHT_PREDICTED = 0.45
#: Weight of the observed-QoS-history term.
WEIGHT_QOS = 0.35
#: Weight of the CPU-utilization term.
WEIGHT_UTILIZATION = 0.20
#: EWMA weight of the newest observation.
SMOOTHING = 0.2


@dataclass(frozen=True)
class HostScore:
    """One host's interference score and its components.

    Attributes
    ----------
    host:
        Host name.
    predicted:
        Smoothed predicted violation probability in ``[0, 1]``.
    qos:
        Smoothed observed-violation indicator in ``[0, 1]``.
    utilization:
        Smoothed machine CPU utilization in ``[0, 1]``.
    total:
        Weighted combination, in ``[0, 1]``.
    tick:
        Tick of the newest observation folded in.
    """

    host: str
    predicted: float
    qos: float
    utilization: float
    total: float
    tick: int


class InterferenceScorer:
    """EWMA-smoothed per-host interference scores."""

    def __init__(self) -> None:
        self._scores: Dict[str, HostScore] = {}

    @staticmethod
    def _clamp(value: float) -> float:
        return min(1.0, max(0.0, float(value)))

    def observe(
        self,
        host: str,
        predicted: float,
        violated: bool,
        utilization: float,
        tick: int,
    ) -> HostScore:
        """Fold one tick's signals into the host's running score."""
        predicted = self._clamp(predicted)
        qos_now = 1.0 if violated else 0.0
        utilization = self._clamp(utilization)
        previous = self._scores.get(host)
        if previous is None:
            smoothed = (predicted, qos_now, utilization)
        else:
            a = SMOOTHING
            smoothed = (
                a * predicted + (1 - a) * previous.predicted,
                a * qos_now + (1 - a) * previous.qos,
                a * utilization + (1 - a) * previous.utilization,
            )
        total = (
            WEIGHT_PREDICTED * smoothed[0]
            + WEIGHT_QOS * smoothed[1]
            + WEIGHT_UTILIZATION * smoothed[2]
        )
        score = HostScore(
            host=host,
            predicted=smoothed[0],
            qos=smoothed[1],
            utilization=smoothed[2],
            total=total,
            tick=tick,
        )
        self._scores[host] = score
        return score

    def score(self, host: str) -> Optional[HostScore]:
        """The host's current score, or None if never observed."""
        return self._scores.get(host)

    def scores(self) -> Dict[str, HostScore]:
        """A snapshot of all current scores, keyed by host."""
        return dict(self._scores)
