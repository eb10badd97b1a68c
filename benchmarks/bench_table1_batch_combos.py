"""Table 1 — Multi-batch combinations via logical-VM aggregation (§5).

Batch-1 = Twitter-Analysis + Soplex
Batch-2 = Twitter-Analysis + MemoryBomb

The monitored metrics of all batch containers are aggregated into one
logical VM, and upon a predicted transition all of them are throttled
collectively. This bench verifies QoS protection and utilization gain
for both combinations against the Webservice.
"""

from repro.analysis.reports import ascii_table

from benchmarks.helpers import banner, get_trio

COMBOS = {
    "Batch-1 (Twitter+Soplex)": ("twitter-analysis", "soplex"),
    "Batch-2 (Twitter+MemoryBomb)": ("twitter-analysis", "memorybomb"),
}


def run_experiment():
    return {
        name: get_trio("webservice-mix", batches)
        for name, batches in COMBOS.items()
    }


def test_table1_batch_combinations(capsys):
    table = run_experiment()

    rows = []
    for name, trio in table.items():
        rows.append([
            name,
            f"{trio.unmanaged.violation_ratio():.1%}",
            f"{trio.stayaway.violation_ratio():.1%}",
            f"{trio.utilization.unmanaged_gain_mean:5.1f}pp",
            f"{trio.utilization.stayaway_gain_mean:5.1f}pp",
        ])

    with capsys.disabled():
        print(banner("Table 1 - batch combinations (Webservice mix workload)"))
        print(ascii_table(
            ["combination", "unmanaged viol", "stayaway viol",
             "unmanaged gain", "stayaway gain"],
            rows,
        ))
        for name, trio in table.items():
            controller = trio.stayaway.controller
            print(f"{name}: monitored VM blocks = "
                  f"{list(controller.collector.vm_names)} "
                  "(batch containers aggregated as one logical VM)")

    for name, trio in table.items():
        # QoS protected despite two simultaneous batch co-tenants.
        assert trio.stayaway.violation_ratio() < 0.1, name
        # The logical-VM aggregation keeps the metric space small:
        # one sensitive block + one batch block = 10 metrics.
        controller = trio.stayaway.controller
        assert controller.collector.dimension == 10, name
        # Collective throttling: when throttled, every running batch
        # container was paused (none left running unthrottled).
        assert controller.throttle.throttle_count >= 1, name
    # Batch-2 (with MemoryBomb) is more hostile than Batch-1 unmanaged.
    assert (
        table["Batch-2 (Twitter+MemoryBomb)"].unmanaged.violation_ratio()
        > table["Batch-1 (Twitter+Soplex)"].unmanaged.violation_ratio()
    )
