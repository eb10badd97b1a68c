"""Workload models: the applications the paper co-locates.

Latency-sensitive applications
------------------------------
* :class:`~repro.workloads.vlc.VlcStreamingServer` — the instrumented
  VLC 2.0.5 streaming server; QoS = real-time transcoding rate.
* :class:`~repro.workloads.webservice.Webservice` — the memcached-backed
  analytics webservice with CPU-intensive, memory-intensive and mixed
  workloads; QoS = transaction completion rate.

Best-effort batch applications
------------------------------
* :class:`~repro.workloads.spec.Soplex` — SPEC CPU2006 soplex stand-in.
* :class:`~repro.workloads.cloudsuite.TwitterAnalysis` — CloudSuite
  Twitter influence ranking stand-in (alternating CPU/memory phases).
* :class:`~repro.workloads.bombs.CpuBomb` /
  :class:`~repro.workloads.bombs.MemoryBomb` — isolation-benchmark
  stressors.
* :class:`~repro.workloads.vlc.VlcTranscoder` — offline VLC transcoding.

All models are *phase-driven*: each application walks through a
schedule of resource-demand phases, optionally modulated by a client
workload trace (diurnal Wikipedia-style traffic, §1 Fig. 1).
"""

from repro.workloads.base import (
    Application,
    ApplicationKind,
    PhasedApplication,
    QosReport,
)
from repro.workloads.bombs import CpuBomb, MemoryBomb
from repro.workloads.cloudsuite import TwitterAnalysis
from repro.workloads.phases import Phase, PhaseSchedule
from repro.workloads.registry import available_workloads, make_workload
from repro.workloads.spec import Soplex
from repro.workloads.traces import (
    WIKIPEDIA_HOURLY_SHAPE,
    WorkloadTrace,
    diurnal_trace,
    wikipedia_trace,
)
from repro.workloads.vlc import VlcStreamingServer, VlcTranscoder
from repro.workloads.webservice import Webservice, WebserviceWorkload

__all__ = [
    "Application",
    "ApplicationKind",
    "CpuBomb",
    "MemoryBomb",
    "Phase",
    "PhaseSchedule",
    "PhasedApplication",
    "QosReport",
    "Soplex",
    "TwitterAnalysis",
    "VlcStreamingServer",
    "VlcTranscoder",
    "Webservice",
    "WebserviceWorkload",
    "WIKIPEDIA_HOURLY_SHAPE",
    "WorkloadTrace",
    "available_workloads",
    "diurnal_trace",
    "make_workload",
    "wikipedia_trace",
]
