"""Ablation — the §2.1 priority scheme for multiple sensitive apps.

"multiple sensitive applications are scheduled with the notion of
priorities ... Stay-Away can choose to [act on] the lower priority
sensitive application." We co-schedule a high-priority stream and a
lower-priority webservice with a batch job, and compare the priority
coordinator against a flat setup where only the batch app is
throttleable.
"""

from repro.analysis.reports import ascii_table
from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.priorities import PrioritizedStayAway
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host
from repro.workloads.cloudsuite import TwitterAnalysis
from repro.workloads.vlc import VlcStreamingServer
from repro.workloads.webservice import Webservice, WebserviceWorkload

from benchmarks.helpers import banner


def build_host(seed):
    host = Host()
    stream = VlcStreamingServer(seed=seed + 1)
    webservice = Webservice(
        WebserviceWorkload.CPU, seed=seed + 2, qos_threshold=0.85
    )
    batch = TwitterAnalysis(total_work=None, seed=seed + 3)
    host.add_container(Container(name="vlc", app=stream, sensitive=True))
    host.add_container(
        Container(name="ws", app=webservice, sensitive=True, start_tick=20)
    )
    host.add_container(Container(name="tw", app=batch, start_tick=40))
    return host, stream, webservice


def run_experiment(ticks=600):
    # Priority scheme: stream (2) > webservice (1); batch is fair game
    # for both controllers.
    host_p, stream_p, ws_p = build_host(seed=60)
    coordinator = PrioritizedStayAway(
        [(stream_p, 2), (ws_p, 1)], config=StayAwayConfig(seed=61)
    )
    SimulationEngine(host_p, [coordinator]).run(ticks=ticks)

    # Flat scheme: one controller protects the stream, may only touch
    # the batch container; the webservice is untouchable.
    host_f, stream_f, ws_f = build_host(seed=60)
    controller = StayAway(stream_f, config=StayAwayConfig(seed=61))
    SimulationEngine(host_f, [controller]).run(ticks=ticks)

    return {
        "coordinator": coordinator,
        "host_p": host_p,
        "flat": controller,
        "host_f": host_f,
        "ws_p": ws_p,
    }


def test_ablation_priorities(capsys):
    results = run_experiment()
    coordinator = results["coordinator"]
    flat = results["flat"]

    stream_p = coordinator.controller_for("vlc-streaming")
    ws_controller = coordinator.controller_for("webservice-cpu")

    rows = [
        ["priorities", "vlc (prio 2)",
         f"{stream_p.qos.violation_ratio():.2%}",
         results["host_p"].container("vlc").pause_count],
        ["priorities", "webservice (prio 1)",
         f"{ws_controller.qos.violation_ratio():.2%}",
         results["host_p"].container("ws").pause_count],
        ["flat (batch-only targets)", "vlc",
         f"{flat.qos.violation_ratio():.2%}",
         results["host_f"].container("vlc").pause_count],
        ["flat (batch-only targets)", "webservice (unprotected)",
         "n/a",
         results["host_f"].container("ws").pause_count],
    ]
    with capsys.disabled():
        print(banner("Ablation - §2.1 priorities for multiple sensitive apps"))
        print(ascii_table(
            ["scheme", "application", "violations", "times paused"], rows
        ))

    # The two sensitive apps alone oversubscribe the host: throttling
    # the batch app is NOT enough. Without the priority scheme the
    # stream cannot be protected at all...
    assert flat.qos.violation_ratio() > 0.5
    # ...while with §2.1 priorities the coordinator demotes the
    # lower-priority webservice and the stream's QoS survives.
    assert stream_p.qos.violation_ratio() < 0.12
    assert results["host_p"].container("ws").pause_count >= 1
    assert results["host_f"].container("ws").pause_count == 0
    # The highest-priority app is never paused anywhere.
    assert results["host_p"].container("vlc").pause_count == 0
    assert results["host_f"].container("vlc").pause_count == 0
