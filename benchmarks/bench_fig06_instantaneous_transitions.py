"""Fig. 6 — Instantaneous state transitions: VLC transcoding + CPUBomb.

The paper's illustration run: both batch applications have minimal
phase transitions, the co-location contends purely on CPU, and the
jump from safe execution to the violation state is instantaneous
(Action status: False — Stay-Away observes without throttling).
"""

import numpy as np

from repro.analysis.reports import render_scatter
from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.state_space import StateLabel
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host
from repro.trajectory.modes import ExecutionMode
from repro.workloads.bombs import CpuBomb
from repro.workloads.vlc import VlcTranscoder
from repro.workloads.base import Application, ApplicationKind, QosReport
from repro.sim.resources import ResourceVector

from benchmarks.helpers import banner


class SensitiveTranscoder(VlcTranscoder):
    """VLC transcoding treated as the QoS-bearing application.

    The paper defines the violation as "the rate of transcoding frames
    fall[ing] below a certain threshold" for this illustration.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.kind = ApplicationKind.SENSITIVE
        self.qos_threshold = 0.9
        self._report = None

    def _on_advance(self, allocation, clock):
        super()._on_advance(allocation, clock)
        self._report = QosReport(value=allocation.progress, threshold=self.qos_threshold)

    def qos_report(self):
        return self._report


def run_snapshot():
    host = Host()
    transcoder = SensitiveTranscoder(total_work=10_000.0, seed=4)
    bomb = CpuBomb(seed=5)
    # CPUBomb runs first alone (state A), transcoding joins later (B->C).
    host.add_container(Container(name="cpubomb", app=bomb, start_tick=10))
    host.add_container(
        Container(name="vlc-transcoding", app=transcoder, sensitive=True,
                  start_tick=120)
    )
    controller = StayAway(transcoder, config=StayAwayConfig(enabled=False, seed=6))
    SimulationEngine(host, [controller]).run(ticks=300)
    return controller


def test_fig06_instantaneous_transitions(capsys):
    controller = run_snapshot()

    points = np.vstack([p.coords for p in controller.trajectory])
    markers = []
    for p in controller.trajectory:
        if p.label is StateLabel.VIOLATION:
            markers.append("C")  # the violation state
        elif p.mode is ExecutionMode.BATCH_ONLY:
            markers.append("A")  # CPUBomb alone
        elif p.mode is ExecutionMode.COLOCATED:
            markers.append("B")  # co-located execution
        else:
            markers.append(".")

    with capsys.disabled():
        print(banner("Fig. 6 - instantaneous transitions, VLC transcoding + CPUBomb"))
        print("  A=CPUBomb alone  B=co-located  C=violation  (Action status: False)")
        for row in render_scatter(points, markers, width=84, height=20):
            print(f"  {row}")

    # The co-location saturates CPU instantly: the first co-located tick
    # is already a violation (instantaneous transition, no ramp).
    first_coloc = next(
        p for p in controller.trajectory if p.mode is ExecutionMode.COLOCATED
    )
    assert first_coloc.label is StateLabel.VIOLATION

    # Transition A -> C happens in one controller period: the step from
    # the last batch-only state to the first violation is much larger
    # than the within-mode steps (the paper's 'instantaneous spike').
    trajectory = controller.trajectory
    jump_index = next(
        i for i, p in enumerate(trajectory) if p.mode is ExecutionMode.COLOCATED
    )
    jump = np.linalg.norm(
        trajectory[jump_index].coords - trajectory[jump_index - 1].coords
    )
    batch_steps = [
        np.linalg.norm(trajectory[i + 1].coords - trajectory[i].coords)
        for i in range(jump_index - 10, jump_index - 1)
    ]
    assert jump > 5 * (np.mean(batch_steps) + 1e-9)

    # Violation states cluster: the violation region is compact.
    violations = np.vstack(
        [p.coords for p in trajectory if p.label is StateLabel.VIOLATION]
    )
    spread = np.linalg.norm(violations - violations.mean(axis=0), axis=1).mean()
    overall = np.linalg.norm(points - points.mean(axis=0), axis=1).mean()
    assert spread < overall
