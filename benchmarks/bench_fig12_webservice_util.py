"""Fig. 12 — Gained utilization: Webservice x batch application x workload.

Paper shape: the gain depends on both the Webservice workload type and
the batch application; it is *maximum* for the memory-intensive
workload co-located with Twitter-Analysis (throttled only in its
memory phases), and relatively low for the CPU-intensive workload
against the mostly CPU-bound batch applications (everything except
MemoryBomb).
"""

import numpy as np

from repro.analysis.reports import ascii_table

from benchmarks.helpers import banner, get_trio

WORKLOADS = ["webservice-cpu", "webservice-memory", "webservice-mix"]
BATCHES = ["soplex", "twitter-analysis", "cpubomb", "memorybomb", "vlc-transcoding"]


def run_experiment():
    table = {}
    for sensitive in WORKLOADS:
        for batch in BATCHES:
            trio = get_trio(sensitive, (batch,))
            table[(sensitive, batch)] = trio
    return table


def test_fig12_webservice_gained_utilization(capsys):
    table = run_experiment()

    rows = []
    for batch in BATCHES:
        row = [batch]
        for sensitive in WORKLOADS:
            trio = table[(sensitive, batch)]
            row.append(f"{trio.utilization.stayaway_gain_mean:5.1f}pp")
        rows.append(row)

    with capsys.disabled():
        print(banner("Fig. 12 - Stay-Away gained utilization (pp), Webservice"))
        print(ascii_table(["batch app \\ workload"] + WORKLOADS, rows))
        print("(paper shape: max = memory workload x Twitter-Analysis; "
              "low gains for CPU workload x CPU-bound batch apps)")

    gains = {
        key: trio.utilization.stayaway_gain_mean for key, trio in table.items()
    }

    # Max gain for Twitter-Analysis lands on the memory workload.
    assert gains[("webservice-memory", "twitter-analysis")] >= max(
        gains[("webservice-cpu", "twitter-analysis")],
        gains[("webservice-mix", "twitter-analysis")] * 0.4,
    )
    # Twitter-Analysis with the memory workload is among the top gains.
    twitter_memory = gains[("webservice-memory", "twitter-analysis")]
    assert twitter_memory > 8.0
    # CPUBomb is always the worst (or near-worst) batch co-tenant.
    for sensitive in WORKLOADS:
        assert gains[(sensitive, "cpubomb")] <= min(
            gains[(sensitive, "twitter-analysis")],
            gains[(sensitive, "soplex")],
        ) + 1.0
    # MemoryBomb hurts the memory workload far more than the CPU one.
    assert gains[("webservice-cpu", "memorybomb")] > gains[
        ("webservice-memory", "memorybomb")
    ]
    # QoS was protected in every cell.
    for trio in table.values():
        assert trio.stayaway.violation_ratio() < 0.12
