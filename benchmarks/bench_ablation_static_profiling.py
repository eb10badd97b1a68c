"""Ablation — static-profiling admission vs runtime adaptation.

The class of prior work the paper argues against (§1, §8: Bubble-Up,
profiling-based predictors): profile offline, decide once, never adapt.
We profile the VLC streaming server during two different workload
windows and show the dilemma:

* profiled off-peak, the co-location is admitted — and then violates
  QoS at the diurnal peak;
* profiled at peak, the co-location is rejected — and all of the
  off-peak headroom Stay-Away exploits is wasted.
"""

from repro.analysis.reports import ascii_table
from repro.baselines.static_profiling import (
    StaticColocationPolicy,
    profile_application,
    static_admission_decision,
)
from repro.experiments.scenarios import Scenario
from repro.monitoring.qos import QosTracker
from repro.sim.engine import SimulationEngine
from repro.workloads.registry import make_workload
from repro.workloads.traces import WorkloadTrace

from benchmarks.helpers import banner, get_run


def run_static(admit: bool):
    """Run VLC + Twitter under a one-shot static admission decision."""
    scenario = Scenario(
        sensitive="vlc-streaming", batches=("twitter-analysis",), ticks=1200
    )
    built = scenario.build()
    policy = StaticColocationPolicy(admit=admit)
    qos = QosTracker(built.sensitive_app)
    engine = SimulationEngine(built.host, [policy, qos])
    engine.run(ticks=scenario.ticks)
    work = sum(app.work_done for app in built.batch_apps)
    return qos, work


def run_experiment():
    # Offline profiles at two workload levels.
    off_peak = profile_application(
        make_workload("vlc-streaming", trace=WorkloadTrace.constant(0.5)), ticks=40
    )
    peak = profile_application(
        make_workload("vlc-streaming", trace=WorkloadTrace.constant(1.0)), ticks=40
    )
    batch = profile_application(make_workload("twitter-analysis"), ticks=40)

    capacity = None
    from repro.sim.resources import default_host_capacity

    capacity = default_host_capacity()
    admit_off_peak = static_admission_decision(off_peak, [batch], capacity)
    admit_peak = static_admission_decision(peak, [batch], capacity)

    # Enact each profile's decision: off-peak admits, peak rejects.
    admitted_qos, admitted_work = run_static(admit=True)
    rejected_qos, rejected_work = run_static(admit=False)
    stayaway = get_run("stayaway", "vlc-streaming", ("twitter-analysis",))
    return (
        admit_off_peak,
        admit_peak,
        (admitted_qos, admitted_work),
        (rejected_qos, rejected_work),
        stayaway,
    )


def test_ablation_static_profiling(capsys):
    (
        admit_off_peak,
        admit_peak,
        (admitted_qos, admitted_work),
        (rejected_qos, rejected_work),
        stayaway,
    ) = run_experiment()

    rows = [
        ["static (profiled off-peak -> admit)",
         f"{admitted_qos.violation_ratio():.1%}", f"{admitted_work:.0f}"],
        ["static (profiled at peak -> reject)",
         f"{rejected_qos.violation_ratio():.1%}", f"{rejected_work:.0f}"],
        ["Stay-Away (runtime adaptive)",
         f"{stayaway.violation_ratio():.1%}",
         f"{stayaway.batch_work_done():.0f}"],
    ]

    with capsys.disabled():
        print(banner("Ablation - static profiling admission vs Stay-Away"))
        print(f"off-peak profile admits co-location: {admit_off_peak}")
        print(f"peak profile admits co-location    : {admit_peak}")
        print(ascii_table(["policy", "violations", "batch work"], rows))

    # The dilemma is real: the two profiling windows disagree.
    assert admit_off_peak and not admit_peak
    # Admitted-static violates far more than Stay-Away...
    assert admitted_qos.violation_ratio() > 3 * stayaway.violation_ratio()
    # ...while rejected-static wastes essentially all batch throughput
    # (the one work-tick is the admission tick before the pause lands).
    assert rejected_work <= 2.0
    # Stay-Away gets real batch work done while protecting QoS.
    assert stayaway.batch_work_done() > 100.0
    assert stayaway.violation_ratio() < 0.08
