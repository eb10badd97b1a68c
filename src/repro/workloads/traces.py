"""Client workload traces.

The paper motivates Stay-Away with the diurnal Wikipedia read workload
(Fig. 1, trace [5]): clear daily peaks and valleys, meaning a sensitive
service leaves large resource headroom during off-peak hours. The
original AWS-hosted trace is no longer published; we embed a 24-point
hourly shape matched to the well-known Wikipedia daily pattern (trough
around 06:00 UTC, peak in the evening) and synthesize multi-day traces
from it with per-sample noise.
"""

from __future__ import annotations

from math import floor
from typing import List, Optional, Sequence

import numpy as np

#: Relative hourly read intensity for one day, normalized to peak = 1.0.
#: Shape: overnight trough (~45% of peak), morning ramp, evening peak —
#: the classic Wikipedia/diurnal web-traffic curve of the paper's Fig. 1.
WIKIPEDIA_HOURLY_SHAPE: List[float] = [
    0.62, 0.56, 0.51, 0.47, 0.45, 0.46,
    0.50, 0.57, 0.66, 0.74, 0.80, 0.84,
    0.87, 0.89, 0.90, 0.92, 0.94, 0.96,
    0.98, 1.00, 0.99, 0.93, 0.83, 0.71,
]


class WorkloadTrace:
    """A time-indexed client-load intensity in ``[0, 1]``-ish units.

    Samples are interpreted as intensities at uniformly spaced times
    ``sample_seconds`` apart; :meth:`intensity` linearly interpolates
    between samples and (optionally) wraps around, so a one-day trace
    can drive an arbitrarily long run.
    """

    def __init__(
        self,
        samples: Sequence[float],
        sample_seconds: float = 3600.0,
        wrap: bool = True,
    ) -> None:
        if len(samples) < 1:
            raise ValueError("a trace needs at least one sample")
        if sample_seconds <= 0:
            raise ValueError("sample_seconds must be positive")
        self.samples = np.asarray(samples, dtype=float)
        if np.any(self.samples < 0):
            raise ValueError("trace intensities must be non-negative")
        # The same float64 values as plain floats: ``intensity`` runs
        # twice a tick per server and interpolates on these.
        self._levels: List[float] = self.samples.tolist()
        self.sample_seconds = float(sample_seconds)
        self.wrap = wrap

    @property
    def duration_seconds(self) -> float:
        """Length of one pass over the trace."""
        return len(self.samples) * self.sample_seconds

    def intensity(self, now_seconds: float) -> float:
        """Interpolated intensity at an absolute simulated time."""
        if now_seconds < 0:
            raise ValueError(f"time must be non-negative, got {now_seconds}")
        position = now_seconds / self.sample_seconds
        n = len(self.samples)
        if self.wrap:
            position = position % n
        else:
            position = min(position, n - 1)
        lower = floor(position)
        upper = (lower + 1) % n if self.wrap else min(lower + 1, n - 1)
        fraction = position - lower
        levels = self._levels
        return float((1.0 - fraction) * levels[lower % n] + fraction * levels[upper])

    # -- constructors ----------------------------------------------------
    @classmethod
    def constant(cls, level: float = 1.0) -> "WorkloadTrace":
        """A flat trace (no workload variation)."""
        return cls([level, level], sample_seconds=3600.0)

    @classmethod
    def step(
        cls,
        levels: Sequence[float],
        step_seconds: float,
        wrap: bool = False,
    ) -> "WorkloadTrace":
        """Piecewise levels, each held for ``step_seconds``.

        Used to reproduce the paper's Fig. 13 timelines where workload
        intensity is varied in controlled steps.
        """
        expanded: List[float] = []
        for level in levels:
            expanded.extend([level, level])
        return cls(expanded, sample_seconds=step_seconds / 2.0, wrap=wrap)


def diurnal_trace(
    days: int = 4,
    samples_per_day: int = 24,
    base: float = 0.0,
    peak: float = 1.0,
    noise: float = 0.03,
    seed: Optional[int] = 7,
    shape: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Synthesize a multi-day diurnal intensity array.

    Parameters
    ----------
    days / samples_per_day:
        Output length is ``days * samples_per_day``.
    base / peak:
        The shape (normalized to max 1.0) is mapped to
        ``base + (peak - base) * shape``.
    noise:
        Relative Gaussian noise per sample (0 disables).
    shape:
        Optional custom daily shape; defaults to
        :data:`WIKIPEDIA_HOURLY_SHAPE` resampled to ``samples_per_day``.
    """
    if days < 1:
        raise ValueError("days must be >= 1")
    daily = np.asarray(shape if shape is not None else WIKIPEDIA_HOURLY_SHAPE, float)
    daily = daily / daily.max()
    if samples_per_day != len(daily):
        positions = np.linspace(0, len(daily), samples_per_day, endpoint=False)
        daily = np.interp(positions, np.arange(len(daily) + 1), np.append(daily, daily[0]))
    series = np.tile(daily, days)
    series = base + (peak - base) * series
    if noise > 0:
        rng = np.random.default_rng(seed)
        series = series * rng.normal(1.0, noise, size=series.shape)
    return np.clip(series, 0.0, None)


def wikipedia_trace(
    days: int = 4,
    sample_seconds: float = 3600.0,
    base: float = 0.35,
    peak: float = 1.0,
    noise: float = 0.03,
    seed: Optional[int] = 7,
) -> WorkloadTrace:
    """The paper's Fig. 1 workload as a :class:`WorkloadTrace`.

    Intensity is normalized so the daily peak is ``peak`` and the
    overnight trough lands near ``base`` (the Wikipedia trace's
    trough/peak ratio is roughly 0.45).
    """
    samples = diurnal_trace(
        days=days, samples_per_day=24, base=base, peak=peak, noise=noise, seed=seed
    )
    return WorkloadTrace(samples, sample_seconds=sample_seconds, wrap=True)
