"""Fig. 15 — Webservice QoS (CPU-intensive workload) vs batch apps.

Paper shape: the CPU workload is the one every (mostly CPU-bound)
batch application interferes with; Stay-Away still holds QoS near the
threshold for all of them.
"""

from repro.analysis.reports import ascii_table

from benchmarks.helpers import banner, get_trio

BATCHES = ["soplex", "twitter-analysis", "cpubomb", "memorybomb"]


def run_experiment():
    return {batch: get_trio("webservice-cpu", (batch,)) for batch in BATCHES}


def test_fig15_webservice_cpu_qos(capsys):
    table = run_experiment()

    rows = []
    for batch, trio in table.items():
        rows.append([
            batch,
            f"{trio.unmanaged.qos_values().mean():.3f}",
            f"{trio.unmanaged.violation_ratio():.1%}",
            f"{trio.stayaway.qos_values().mean():.3f}",
            f"{trio.stayaway.violation_ratio():.1%}",
        ])

    with capsys.disabled():
        print(banner("Fig. 15 - Webservice QoS, CPU workload (threshold 0.9)"))
        print(ascii_table(
            ["batch app", "unmanaged QoS", "unmanaged viol",
             "stayaway QoS", "stayaway viol"],
            rows,
        ))
        print("(paper: all batch apps except MemoryBomb are CPU-intensive "
              "and interfere with the CPU workload)")

    for batch, trio in table.items():
        assert trio.stayaway.violation_ratio() < 0.1, batch
        assert trio.stayaway.qos_values().mean() > 0.93, batch
    # The CPU-bound co-tenants interfere unmanaged; MemoryBomb barely.
    assert table["cpubomb"].unmanaged.violation_ratio() > 0.5
    assert table["twitter-analysis"].unmanaged.violation_ratio() > 0.1
    assert (
        table["memorybomb"].unmanaged.violation_ratio()
        < table["cpubomb"].unmanaged.violation_ratio() / 3
    )
