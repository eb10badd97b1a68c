"""Fig. 1 — Total workload variation of Wikipedia (diurnal trace).

The paper motivates Stay-Away with the Wikipedia read trace of
1/1/2011-5/1/2011: a diurnal pattern with clear low-intensity valleys.
This bench regenerates the 4-day synthetic trace and verifies its
diurnal structure (daily periodicity, trough/peak ratio ~0.45).
"""

import numpy as np

from repro.analysis.reports import render_series
from repro.workloads.traces import diurnal_trace, wikipedia_trace

from benchmarks.helpers import banner


def build_trace():
    series = diurnal_trace(days=4, samples_per_day=24, noise=0.03, seed=7)
    return series


def test_fig01_wikipedia_trace(capsys):
    series = build_trace()

    daily = series.reshape(4, 24)
    trough_hours = daily.argmin(axis=1)
    peak_hours = daily.argmax(axis=1)
    trough_peak_ratio = daily.min(axis=1).mean() / daily.max(axis=1).mean()

    with capsys.disabled():
        print(banner("Fig. 1 - Wikipedia total read workload (4 days, hourly)"))
        print(render_series(series, width=96))
        print(f"daily trough hours : {trough_hours.tolist()} (paper: early morning)")
        print(f"daily peak hours   : {peak_hours.tolist()} (paper: evening)")
        print(f"trough/peak ratio  : {trough_peak_ratio:.2f} (paper trace: ~0.45)")

    # Shape assertions: diurnal with pronounced valleys.
    assert series.shape == (96,)
    assert np.all(trough_hours >= 2) and np.all(trough_hours <= 7)
    assert np.all(peak_hours >= 16) and np.all(peak_hours <= 22)
    assert 0.3 < trough_peak_ratio < 0.6

    # And the WorkloadTrace wrapper interpolates/wraps correctly.
    trace = wikipedia_trace(days=4, noise=0.0)
    assert trace.intensity(0.0) == trace.intensity(trace.duration_seconds)
