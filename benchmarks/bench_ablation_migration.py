"""Ablation — DeepDive-style migration vs Stay-Away throttling (§2.1, §8).

"VM migration is slow and involves a high cost. ... throttl[ing] ...
does not incur a high cost and is instantaneous." On a two-host cluster
with an interfering batch VM, both approaches eventually protect QoS —
but migration pays violation ticks while the warning persistence runs
and downtime while the image copies, and it needs a spare host;
Stay-Away acts on the same host within one period.
"""

from repro.analysis.reports import ascii_table
from repro.baselines.deepdive import DeepDiveLike
from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.sim.cluster import Cluster
from repro.sim.container import Container
from repro.workloads.bombs import CpuBomb
from repro.workloads.vlc import VlcStreamingServer

from benchmarks.helpers import banner


def build_cluster():
    cluster = Cluster(host_names=["h1", "h2"], migration_mb_per_tick=200.0)
    vlc = VlcStreamingServer(seed=1)
    bomb = CpuBomb(seed=2)
    cluster.host("h1").add_container(
        Container(name="vlc", app=vlc, sensitive=True)
    )
    cluster.host("h1").add_container(
        Container(name="bomb", app=bomb, start_tick=20)
    )
    return cluster, vlc


class _PerHostAdapter:
    """Run a host middleware from the cluster loop."""

    def __init__(self, middleware, host_name):
        self.middleware = middleware
        self.host_name = host_name

    def on_cluster_tick(self, snapshots, cluster):
        self.middleware.on_tick(
            snapshots[self.host_name], cluster.host(self.host_name)
        )


def run_experiment(ticks=400):
    # DeepDive-style migration.
    cluster_m, vlc_m = build_cluster()
    deepdive = DeepDiveLike(persistence=5, cooldown=50)
    cluster_m.add_middleware(deepdive)
    from repro.monitoring.qos import QosTracker

    qos_m = QosTracker(vlc_m)
    cluster_m.add_middleware(_PerHostAdapter(qos_m, "h1"))
    cluster_m.run(ticks)

    # Stay-Away throttling on the same (single-host) placement.
    cluster_s, vlc_s = build_cluster()
    controller = StayAway(vlc_s, config=StayAwayConfig(seed=3))
    cluster_s.add_middleware(_PerHostAdapter(controller, "h1"))
    cluster_s.run(ticks)

    return {
        "deepdive_qos": qos_m,
        "deepdive_migrations": deepdive.migrations_triggered,
        "migration_records": cluster_m.migrations,
        "stayaway": controller,
    }


def test_ablation_migration_vs_throttle(capsys):
    results = run_experiment()
    deepdive_qos = results["deepdive_qos"]
    controller = results["stayaway"]

    downtime = sum(r.downtime_ticks for r in results["migration_records"])
    rows = [
        ["DeepDive-like (migrate)",
         f"{deepdive_qos.violation_ratio():.2%}",
         f"{results['deepdive_migrations']} migrations, "
         f"{downtime} downtime ticks",
         "needs a spare host"],
        ["Stay-Away (throttle)",
         f"{controller.qos.violation_ratio():.2%}",
         f"{controller.throttle.throttle_count} throttles, 0 downtime",
         "same host"],
    ]
    with capsys.disabled():
        print(banner("Ablation - migration vs throttling"))
        print(ascii_table(["policy", "violations", "actions/cost", "resources"], rows))

    # Migration happened and eventually protects QoS...
    assert results["deepdive_migrations"] >= 1
    late_violations = [
        t for t in deepdive_qos.violation_ticks if t > 100
    ]
    assert len(late_violations) < 10
    # ...but it paid real downtime and needed the second host, while
    # throttling paid none.
    assert downtime >= 1
    # Both policies end with low violation ratios on this scenario.
    assert controller.qos.violation_ratio() < 0.15
    assert deepdive_qos.violation_ratio() < 0.15
