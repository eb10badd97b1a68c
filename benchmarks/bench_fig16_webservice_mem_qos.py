"""Fig. 16 — Webservice QoS (memory-intensive workload) vs batch apps.

Paper shape: the memory workload is hurt through the memory subsystem —
Twitter-Analysis only "when its memory operation is intensive enough to
force the OS to swap pages of Webservice to disk", MemoryBomb
persistently. Stay-Away protects QoS in every pairing.
"""

from repro.analysis.reports import ascii_table

from benchmarks.helpers import banner, get_trio

BATCHES = ["soplex", "twitter-analysis", "cpubomb", "memorybomb"]


def run_experiment():
    return {batch: get_trio("webservice-memory", (batch,)) for batch in BATCHES}


def test_fig16_webservice_memory_qos(capsys):
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
        print(banner("Fig. 16 - Webservice QoS, MEMORY workload (threshold 0.9)"))
        print(ascii_table(
            ["batch app", "unmanaged QoS", "unmanaged viol",
             "stayaway QoS", "stayaway viol"],
            rows,
        ))

    for batch, trio in table.items():
        assert trio.stayaway.violation_ratio() < 0.1, batch
        assert trio.stayaway.qos_values().mean() > 0.93, batch
    # MemoryBomb is the worst co-tenant for the memory workload.
    memorybomb_viol = table["memorybomb"].unmanaged.violation_ratio()
    assert memorybomb_viol > 0.5
    # Twitter-Analysis interferes only during its memory phases: its
    # unmanaged violation ratio is well below MemoryBomb's.
    twitter_viol = table["twitter-analysis"].unmanaged.violation_ratio()
    assert 0.02 < twitter_viol < memorybomb_viol / 2
    # Soplex (modest footprint) barely interferes with the memory workload.
    assert table["soplex"].unmanaged.violation_ratio() < 0.1
