"""Fig. 5 — The four execution modes in the mapped space (VLC + Soplex),
plus the per-mode step-distance/angle pdfs.

Paper shape: "each execution mode forms clusters and has a different
pattern for trajectory. While VLC streaming is characterised by short
bursts of correlated movement, Soplex follows a linear trajectory with
a consistent orientation and slightly varying step length. Co-located
execution ... experiences an oscillating trajectory with bigger step
lengths." The pdf histograms are skewed — the trajectory is biased,
not random.
"""

import numpy as np

from repro.analysis.reports import render_scatter
from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host
from repro.trajectory.kde import gaussian_kde
from repro.trajectory.modes import ExecutionMode
from repro.workloads.spec import Soplex
from repro.workloads.vlc import VlcStreamingServer

from benchmarks.helpers import banner

MODE_MARKERS = {
    ExecutionMode.IDLE: "o",
    ExecutionMode.SENSITIVE_ONLY: "v",
    ExecutionMode.BATCH_ONLY: "s",
    ExecutionMode.COLOCATED: "x",
}


def run_lifecycle():
    """Idle -> VLC alone -> co-located -> Soplex alone -> idle."""
    host = Host()
    vlc = VlcStreamingServer(duration=250, seed=1)
    soplex = Soplex(total_work=420.0, seed=2)
    host.add_container(Container(name="vlc", app=vlc, sensitive=True, start_tick=15))
    host.add_container(Container(name="soplex", app=soplex, start_tick=100))
    controller = StayAway(vlc, config=StayAwayConfig(enabled=False, seed=3))
    SimulationEngine(host, [controller]).run(ticks=600)
    return controller


def test_fig05_execution_mode_state_space(capsys):
    controller = run_lifecycle()

    points = np.vstack([point.coords for point in controller.trajectory])
    markers = [MODE_MARKERS[point.mode] for point in controller.trajectory]

    with capsys.disabled():
        print(banner("Fig. 5 - state space of all 4 execution modes (VLC + Soplex)"))
        print("  o=idle  v=VLC alone  s=Soplex alone  x=co-located")
        for row in render_scatter(points, markers, width=84, height=22):
            print(f"  {row}")
        print("\nper-mode trajectory parameter pdfs (step distance):")
        bank = controller.predictor.modes
        for mode in ExecutionMode:
            model = bank.model(mode)
            if model.steps_observed < 3:
                continue
            samples = model.distances.samples
            grid = np.linspace(0, max(samples.max(), 1e-6), 64)
            density = gaussian_kde(samples, grid)
            peak = grid[int(np.argmax(density))]
            hist = model.distances.histogram()
            print(
                f"  {mode.value:15s} steps={model.steps_observed:4d} "
                f"mean={samples.mean():.4f} kde-peak={peak:.4f} "
                f"skew={hist.skewness():+.2f}"
            )

    modes_seen = {point.mode for point in controller.trajectory}
    assert modes_seen == set(ExecutionMode)

    bank = controller.predictor.modes
    colocated = bank.model(ExecutionMode.COLOCATED)
    vlc_alone = bank.model(ExecutionMode.SENSITIVE_ONLY)
    soplex_alone = bank.model(ExecutionMode.BATCH_ONLY)

    # Co-located execution has bigger step lengths than Soplex's slow
    # linear drift and than the idle cluster ("oscillating trajectory
    # with bigger step lengths").
    idle_model = bank.model(ExecutionMode.IDLE)
    assert colocated.mean_step_length() > 2 * soplex_alone.mean_step_length()
    assert colocated.mean_step_length() > 2 * idle_model.mean_step_length()

    # Soplex alone: consistent orientation (angle distribution is
    # concentrated -> high max bin probability).
    soplex_angles = soplex_alone.angles.histogram().probabilities()
    assert soplex_angles.max() > 2.0 / len(soplex_angles)

    # The pdfs are biased (skewed), not uniform (§3.2.3).
    for model in (colocated, vlc_alone, soplex_alone):
        probabilities = model.distances.histogram().probabilities()
        assert probabilities.max() > 2.0 / len(probabilities)

    # Modes form clusters: centroid separation exceeds cluster spread.
    by_mode = {}
    for point in controller.trajectory:
        by_mode.setdefault(point.mode, []).append(point.coords)
    idle = np.vstack(by_mode[ExecutionMode.IDLE]).mean(axis=0)
    coloc = np.vstack(by_mode[ExecutionMode.COLOCATED])
    separation = np.linalg.norm(idle - coloc.mean(axis=0))
    spread = np.linalg.norm(coloc - coloc.mean(axis=0), axis=1).mean()
    assert separation > 2 * spread
