"""Fig. 14 — Webservice QoS (mixed workload) vs different batch apps.

Paper shape: with Stay-Away a high level of QoS is guaranteed for
every batch co-tenant; without it, the aggressive co-tenants (CPUBomb,
MemoryBomb) push the service below threshold.
"""

from repro.analysis.reports import ascii_table

from benchmarks.helpers import banner, get_trio

BATCHES = ["soplex", "twitter-analysis", "cpubomb", "memorybomb"]


def run_experiment():
    return {batch: get_trio("webservice-mix", (batch,)) for batch in BATCHES}


def test_fig14_webservice_mix_qos(capsys):
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
        print(banner("Fig. 14 - Webservice QoS, MIX workload (threshold 0.9)"))
        print(ascii_table(
            ["batch app", "unmanaged QoS", "unmanaged viol",
             "stayaway QoS", "stayaway viol"],
            rows,
        ))

    for batch, trio in table.items():
        # Stay-Away always guarantees a high level of QoS.
        assert trio.stayaway.violation_ratio() < 0.1, batch
        assert trio.stayaway.qos_values().mean() > 0.93, batch
        assert (
            trio.stayaway.violation_ratio() <= trio.unmanaged.violation_ratio() + 1e-9
        ), batch
    # The bombs are devastating without Stay-Away.
    assert table["cpubomb"].unmanaged.violation_ratio() > 0.5
    assert table["memorybomb"].unmanaged.violation_ratio() > 0.3
