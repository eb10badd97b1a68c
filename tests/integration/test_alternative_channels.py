"""Integration tests: IPC-based detection and priority coordination on
realistic workloads."""

import pytest

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.priorities import PrioritizedStayAway
from repro.monitoring.ipc import IpcViolationDetector
from repro.monitoring.qos import QosTracker
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host
from repro.workloads.bombs import CpuBomb
from repro.workloads.vlc import VlcStreamingServer
from repro.workloads.webservice import Webservice, WebserviceWorkload


class TestIpcDrivenController:
    def test_ipc_channel_protects_vlc_from_cpubomb(self):
        """The §3.1 alternative: no application instrumentation at all;
        the controller learns violations from the IPC proxy alone."""
        host = Host()
        vlc = VlcStreamingServer(seed=41)
        bomb = CpuBomb(seed=42)
        host.add_container(Container(name="vlc", app=vlc, sensitive=True))
        host.add_container(Container(name="bomb", app=bomb, start_tick=30))
        detector = IpcViolationDetector("vlc", threshold_fraction=0.9)
        controller = StayAway(
            vlc,
            config=StayAwayConfig(seed=43),
            violation_detector=detector,
        )
        app_channel = QosTracker(vlc)  # what the application itself reports
        SimulationEngine(host, [app_channel, controller]).run(ticks=400)

        # The controller acted off IPC dips...
        assert controller.throttle.throttle_count >= 1
        # ...and the application's own (unused) QoS metric confirms the
        # protection worked end to end.
        assert len(app_channel.qos_series) == 400
        assert app_channel.violation_ratio() < 0.2

    def test_ipc_and_app_channels_agree_on_contention(self):
        host = Host()
        vlc = VlcStreamingServer(seed=44)
        bomb = CpuBomb(seed=45)
        host.add_container(Container(name="vlc", app=vlc, sensitive=True))
        host.add_container(Container(name="bomb", app=bomb, start_tick=10))
        detector = IpcViolationDetector("vlc", threshold_fraction=0.9)
        SimulationEngine(host, [detector]).run(ticks=60)
        # Contention from tick 10: the IPC channel sees it too.
        assert detector.violation_count > 20


class TestPrioritiesRealistic:
    def test_stream_outranks_webservice(self):
        """Two real sensitive services, no batch at all: under pressure
        the lower-priority webservice is demoted (§2.1)."""
        host = Host()
        stream = VlcStreamingServer(seed=51)
        webservice = Webservice(
            WebserviceWorkload.CPU, seed=52, qos_threshold=0.85
        )
        host.add_container(Container(name="vlc", app=stream, sensitive=True))
        host.add_container(
            Container(name="ws", app=webservice, sensitive=True, start_tick=40)
        )
        coordinator = PrioritizedStayAway(
            [(stream, 2), (webservice, 1)], config=StayAwayConfig(seed=53)
        )
        SimulationEngine(host, [coordinator]).run(ticks=400)

        # The high-priority stream is protected...
        stream_controller = coordinator.controller_for(stream.name)
        assert stream_controller.qos.violation_ratio() < 0.15
        # ...the stream itself was never demoted...
        assert host.container("vlc").pause_count == 0
        # ...and the pressure fell on the lower-priority webservice.
        assert host.container("ws").pause_count >= 1
