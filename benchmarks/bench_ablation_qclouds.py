"""Ablation — Q-Clouds-style weight boosting vs Stay-Away (§8).

Q-Clouds gives unallocated resources (cgroup shares on a weighted
scheduler) to the sensitive application when its QoS drops. The paper's
critique: "Q-Clouds improves performance as long as there is headroom
available. If no headroom is available, it cannot guarantee QoS."

Reproduced shapes:

* schedulable contention (CPU): Q-Clouds holds QoS reasonably while
  keeping the batch app running at full tilt — the headroom case;
* memory-subsystem contention (swap pressure): weights cannot buy the
  sensitive app out of overcommit, so Q-Clouds keeps violating while
  Stay-Away pauses the culprit and protects QoS.
"""

from repro.analysis.reports import ascii_table

from benchmarks.helpers import banner, get_run

SCENARIOS = {
    "CPU contention (vlc + cpubomb)": ("vlc-streaming", ("cpubomb",)),
    "memory contention (ws-mem + memorybomb)": (
        "webservice-memory", ("memorybomb",)
    ),
    "mixed phases (ws-mem + twitter)": (
        "webservice-memory", ("twitter-analysis",)
    ),
}


def run_experiment():
    results = {}
    for label, (sensitive, batches) in SCENARIOS.items():
        results[label] = {
            "qclouds": get_run("qclouds", sensitive, batches),
            "stayaway": get_run("stayaway", sensitive, batches),
        }
    return results


def test_ablation_qclouds(capsys):
    results = run_experiment()

    rows = []
    for label, runs in results.items():
        for policy in ("qclouds", "stayaway"):
            run = runs[policy]
            rows.append([
                label,
                policy,
                f"{run.violation_ratio():.2%}",
                f"{run.batch_work_done():.0f}",
            ])

    with capsys.disabled():
        print(banner("Ablation - Q-Clouds weight boosting vs Stay-Away"))
        print(ascii_table(["scenario", "policy", "violations", "batch work"], rows))
        print("(weights redistribute schedulable resources but cannot undo "
              "swap pressure - the paper's 'no headroom' failure mode)")

    cpu = results["CPU contention (vlc + cpubomb)"]
    memory = results["memory contention (ws-mem + memorybomb)"]

    # Headroom case: Q-Clouds keeps the batch app far busier than
    # Stay-Away's throttling can.
    assert cpu["qclouds"].batch_work_done() > 3 * cpu["stayaway"].batch_work_done()

    # No-headroom case: Q-Clouds cannot protect QoS against memory
    # pressure; Stay-Away can.
    assert memory["qclouds"].violation_ratio() > 0.3
    assert memory["stayaway"].violation_ratio() < 0.1
    assert (
        memory["qclouds"].violation_ratio()
        > 5 * memory["stayaway"].violation_ratio()
    )
