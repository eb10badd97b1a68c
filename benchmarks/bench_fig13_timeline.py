"""Fig. 13 — Execution timelines: Webservice + Twitter-Analysis.

13a: CPU-intensive workload with stepped intensity. Twitter-Analysis
starts, stresses the Webservice and is throttled; a low-workload period
follows and Stay-Away resumes it; when the workload rises again the
batch application is throttled before the QoS violation happens.

13b: mixed workload with an injected phase-change window during which
Twitter-Analysis runs uninterrupted because the Webservice's states map
far from the violation region.
"""

import numpy as np

from repro.analysis.reports import render_timeline_bands
from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host
from repro.workloads.cloudsuite import TwitterAnalysis
from repro.workloads.traces import WorkloadTrace
from repro.workloads.webservice import Webservice, WebserviceWorkload

from benchmarks.helpers import banner


def run_timeline(workload: WebserviceWorkload, levels, ticks=600, seed=0):
    """One Fig. 13 timeline with stepped workload intensity."""
    trace = WorkloadTrace.step(levels, step_seconds=ticks / len(levels), wrap=False)
    host = Host()
    webservice = Webservice(workload, trace=trace, seed=seed + 1)
    twitter = TwitterAnalysis(total_work=None, seed=seed + 2)
    host.add_container(Container(name="ws", app=webservice, sensitive=True))
    host.add_container(Container(name="tw", app=twitter, start_tick=60))
    controller = StayAway(
        webservice,
        config=StayAwayConfig(seed=seed, starvation_patience=15,
                              probe_probability=0.25),
    )
    SimulationEngine(host, [controller]).run(ticks=ticks)
    return controller, webservice


def throttled_fraction(controller, start, end):
    window = [p for p in controller.trajectory if start <= p.tick < end]
    if not window:
        return 0.0
    return sum(1 for p in window if p.throttling) / len(window)


def run_experiment():
    # 13a: CPU workload: high -> low -> high steps.
    controller_a, ws_a = run_timeline(
        WebserviceWorkload.CPU, levels=[0.95, 0.3, 0.95], seed=5
    )
    # 13b: mixed workload with a mid-run low-intensity phase window.
    controller_b, ws_b = run_timeline(
        WebserviceWorkload.MIX, levels=[1.0, 0.25, 1.0], seed=6
    )
    return controller_a, ws_a, controller_b, ws_b


def test_fig13_execution_timeline(capsys):
    controller_a, ws_a, controller_b, ws_b = run_experiment()

    def bands(controller, webservice):
        stress = 1.0 - np.asarray(controller.qos.qos_series.values)
        throttled = [p.throttling for p in controller.trajectory]
        return render_timeline_bands(stress, throttled, width=90)

    with capsys.disabled():
        print(banner("Fig. 13a - Webservice(CPU) + Twitter-Analysis timeline"))
        stress_line, batch_line = bands(controller_a, ws_a)
        print(f"  webservice stress : {stress_line}")
        print(f"  twitter execution : {batch_line}   (#=running, .=throttled)")
        print(banner("Fig. 13b - Webservice(mix) + Twitter-Analysis timeline"))
        stress_line, batch_line = bands(controller_b, ws_b)
        print(f"  webservice stress : {stress_line}")
        print(f"  twitter execution : {batch_line}   (#=running, .=throttled)")

    # 13a shape: throttled hard during the first high-intensity step,
    # mostly free during the low step, throttled again at the end.
    high1 = throttled_fraction(controller_a, 70, 200)
    low = throttled_fraction(controller_a, 220, 390)
    high2 = throttled_fraction(controller_a, 420, 600)
    assert high1 > low
    assert high2 > low
    assert low < 0.6

    # 13b shape: the phase-change window lets Twitter run uninterrupted.
    low_b = throttled_fraction(controller_b, 220, 390)
    high_b = throttled_fraction(controller_b, 70, 200)
    assert low_b < 0.4
    # QoS protected throughout in both timelines.
    assert controller_a.qos.violation_ratio() < 0.12
    assert controller_b.qos.violation_ratio() < 0.12
