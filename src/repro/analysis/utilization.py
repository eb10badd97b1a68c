"""Machine utilization and the gained-utilization metric.

"Gained utilisation is the gain in utilisation in comparison to
executing VLC streaming service without any co-location" (§7.2). We
compute machine CPU utilization per tick and subtract the isolated
baseline, yielding the paper's percentage-point band series; the upper
band is the unmanaged co-location, the lower band is Stay-Away.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.sim.host import HostSnapshot
from repro.sim.resources import ResourceVector


def utilization_series(
    snapshots: Sequence[HostSnapshot], capacity: ResourceVector
) -> np.ndarray:
    """Machine CPU utilization in [0, 1] per tick."""
    return np.asarray(
        [snapshot.cpu_utilization(capacity) for snapshot in snapshots], dtype=float
    )


def gained_utilization_series(
    colocated: np.ndarray, isolated: np.ndarray
) -> np.ndarray:
    """Percentage-point utilization gain of a co-located run vs isolated.

    Series are truncated to the shorter length (runs may end at
    slightly different ticks).
    """
    colocated = np.asarray(colocated, dtype=float)
    isolated = np.asarray(isolated, dtype=float)
    n = min(colocated.size, isolated.size)
    return (colocated[:n] - isolated[:n]) * 100.0


class UtilizationComparison(NamedTuple):
    """Gained-utilization summary across management policies.

    Attributes
    ----------
    isolated_mean:
        Mean machine utilization of the sensitive-only baseline, [0, 1].
    unmanaged_gain_mean / stayaway_gain_mean:
        Mean percentage-point gains of the two co-located runs (the
        upper and lower bands of Figs. 10-11).
    unmanaged_series / stayaway_series:
        Full per-tick gain series.
    """

    isolated_mean: float
    unmanaged_gain_mean: float
    stayaway_gain_mean: float
    unmanaged_series: np.ndarray
    stayaway_series: np.ndarray

    @property
    def gain_capture_ratio(self) -> float:
        """Fraction of the unmanaged gain Stay-Away retained."""
        if self.unmanaged_gain_mean <= 0:
            return 0.0
        return self.stayaway_gain_mean / self.unmanaged_gain_mean


def compare_utilization(
    isolated: Sequence[HostSnapshot],
    unmanaged: Sequence[HostSnapshot],
    stayaway: Sequence[HostSnapshot],
    capacity: ResourceVector,
) -> UtilizationComparison:
    """Build the Figs. 10-12 comparison from three runs' snapshots."""
    isolated_util = utilization_series(isolated, capacity)
    unmanaged_util = utilization_series(unmanaged, capacity)
    stayaway_util = utilization_series(stayaway, capacity)
    unmanaged_gain = gained_utilization_series(unmanaged_util, isolated_util)
    stayaway_gain = gained_utilization_series(stayaway_util, isolated_util)
    return UtilizationComparison(
        isolated_mean=float(isolated_util.mean()) if isolated_util.size else 0.0,
        unmanaged_gain_mean=float(unmanaged_gain.mean()) if unmanaged_gain.size else 0.0,
        stayaway_gain_mean=float(stayaway_gain.mean()) if stayaway_gain.size else 0.0,
        unmanaged_series=unmanaged_gain,
        stayaway_series=stayaway_gain,
    )
