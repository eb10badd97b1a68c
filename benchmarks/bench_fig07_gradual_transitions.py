"""Fig. 7 — Gradual state transitions: VLC streaming + Twitter-Analysis,
with Stay-Away actively throttling (Action status: True).

Paper shape: the trajectory drifts gradually (workload intensity and
Twitter's phases change over many periods), and during the snapshot the
batch application is being throttled.
"""

import numpy as np

from repro.analysis.reports import render_scatter
from repro.core.state_space import StateLabel

from benchmarks.helpers import banner, get_run


def run_experiment():
    return get_run("stayaway", "vlc-streaming", ("twitter-analysis",))


def test_fig07_gradual_transitions(capsys):
    result = run_experiment()
    controller = result.controller

    points = np.vstack([p.coords for p in controller.trajectory])
    markers = []
    for p in controller.trajectory:
        if p.label is StateLabel.VIOLATION:
            markers.append("V")
        elif p.throttling:
            markers.append("t")
        else:
            markers.append(".")

    throttled_points = [p for p in controller.trajectory if p.throttling]

    with capsys.disabled():
        print(banner("Fig. 7 - gradual transitions, VLC streaming + Twitter-Analysis"))
        print("  .=free execution  t=throttled (Action status: True)  V=violation")
        for row in render_scatter(points, markers, width=84, height=20):
            print(f"  {row}")
        print(f"periods with Action status True: {len(throttled_points)} "
              f"of {len(controller.trajectory)}")

    # Stay-Away was actively throttling during a real share of the run.
    assert len(throttled_points) > 50

    # Gradual transitions dominate: the median inter-period step is a
    # small fraction of the map extent.
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    extent = np.linalg.norm(points.max(axis=0) - points.min(axis=0))
    assert np.median(steps) < 0.05 * extent

    # While throttled (sensitive-only), consecutive states stay close —
    # the resume criterion's premise (§3.3).
    throttled_coords = np.vstack([p.coords for p in throttled_points])
    throttled_steps = np.linalg.norm(np.diff(throttled_coords, axis=0), axis=1)
    assert np.median(throttled_steps) <= np.median(steps) + 1e-9
