"""Outside-in span tracer: timing wrappers around the public layer calls.

Nothing under ``src/repro`` knows about this module. :func:`installed`
swaps class attributes (and the one module-level function,
``place_point``, in the namespace its caller imported it into) for
wrappers that record a span per call, and puts the originals back on
exit. Spans stay in memory as ``[name, start, end, parent, host, tick]``
rows; :meth:`Tracer.fold` reduces an episode's rows to per-name
``calls / total / self`` sums, where a span's self time is its duration
minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_NAME, _START, _END, _PARENT, _HOST, _TICK = range(6)

#: Root span the workloads open around one simulated tick.
ROOT = "bench.tick"


class _Span:
    """Context manager for the spans the benchmark opens by hand."""

    __slots__ = ("tracer", "name", "host", "tick", "index")

    def __init__(self, tracer: "Tracer", name: str, host, tick) -> None:
        self.tracer = tracer
        self.name = name
        self.host = host
        self.tick = tick

    def __enter__(self) -> None:
        self.index = self.tracer.begin(self.name, self.host, self.tick)

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.index)


class Tracer:
    """In-memory span recorder for one workload run.

    Inactive (the default) it costs one attribute test per call, so the
    untraced passes run the same workload code with ``active`` False and
    no wrappers installed.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.active = False
        self.spans: List[list] = []
        #: Rows of the first folded episode, kept for the trace file.
        self.kept: List[list] = []
        #: ``{name: [calls, total seconds, self seconds]}`` over all folds.
        self.stats: Dict[str, List[float]] = {}
        self._stack: List[int] = []
        self._null = contextlib.nullcontext()

    # -- recording ---------------------------------------------------------
    def begin(self, name: str, host=None, tick=None) -> int:
        spans = self.spans
        stack = self._stack
        parent = stack[-1] if stack else -1
        if parent >= 0:
            above = spans[parent]
            if host is None:
                host = above[_HOST]
            if tick is None:
                tick = above[_TICK]
        index = len(spans)
        stack.append(index)
        spans.append([name, time.perf_counter(), 0.0, parent, host, tick])
        return index

    def end(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, host=None, tick=None):
        """A hand-opened span; a no-op context while inactive."""
        if not self.active:
            return self._null
        return _Span(self, name, host, tick)

    # -- reduction ---------------------------------------------------------
    def fold(self) -> None:
        """Reduce the recorded rows into :attr:`stats` and drop them."""
        spans = self.spans
        stats = self.stats
        for row in spans:
            duration = row[_END] - row[_START]
            entry = stats.get(row[_NAME])
            if entry is None:
                entry = stats[row[_NAME]] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration
            if row[_PARENT] >= 0:  # a parent's row precedes its children's
                stats[spans[row[_PARENT]][_NAME]][2] -= duration
        if not self.kept:
            self.kept = spans
        self.spans = []
        self._stack = []

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return float(self.stats.get(name, (0, 0.0, 0.0))[1])

    def self_s(self, *names: str) -> float:
        return float(sum(self.stats.get(name, (0, 0.0, 0.0))[2] for name in names))

    def root_s(self) -> float:
        """Wall time covered by the root spans."""
        return self.total_s(ROOT)

    def write(self, path: Path) -> int:
        """Write the kept episode as JSONL; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.kept[0][_START] if self.kept else 0.0
        with path.open("w", encoding="utf-8") as handle:
            for index, row in enumerate(self.kept):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": row[_NAME],
                            "start_us": round((row[_START] - origin) * 1e6, 3),
                            "end_us": round((row[_END] - origin) * 1e6, 3),
                            "parent": row[_PARENT] if row[_PARENT] >= 0 else None,
                            "workload": self.workload,
                            "host": row[_HOST],
                            "tick": row[_TICK],
                        }
                    )
                )
                handle.write("\n")
        return len(self.kept)


def _wrap(tracer: Tracer, fn: Callable, name: str, host_of) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        index = tracer.begin(name, host_of(args[0]) if host_of else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)

    return traced


def patch_points() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, host-of-self)`` for every wrapper.

    Span names are ``<layer>.<call>``; the layer is the ``src/repro``
    package that owns the code, ``bench`` for the fault injectors and
    audits that are part of the load, not of the program under test.
    """
    from repro.core import state_space as state_space_module
    from repro.core.action import ThrottleManager
    from repro.core.controller import StayAway
    from repro.core.mapping import MappingPipeline
    from repro.core.model_health import ModelHealthWatchdog
    from repro.core.prediction import Predictor
    from repro.core.state_space import StateSpace
    from repro.experiments.chaos import FleetQosAudit
    from repro.fleet.coordinator import FleetCoordinator, HostControllerCell
    from repro.fleet.migration import MigrationSupervisor
    from repro.fleet.scoring import InterferenceScorer
    from repro.mds.dedup import RepresentativeSet
    from repro.monitoring.collector import MetricsCollector
    from repro.monitoring.guard import SensorGuard
    from repro.monitoring.normalize import CapacityNormalizer
    from repro.monitoring.qos import QosTracker
    from repro.service.actuator import AckTracker
    from repro.service.assembler import StreamAssembler
    from repro.service.controller_service import ControllerService
    from repro.service.views import HostView, StreamQosChannel
    from repro.sim import faults
    from repro.sim.cluster import Cluster
    from repro.sim.host import Host
    from repro.trajectory.modes import ModeModelBank
    from repro.trajectory.sampling import TrajectoryModel

    def cell_host(cell) -> str:
        return cell.host_name

    return [
        (Host, "step", "sim.host_step", None),
        (Cluster, "step", "sim.cluster_step", None),
        (MetricsCollector, "on_tick", "monitoring.collect", None),
        (QosTracker, "on_tick", "monitoring.qos", None),
        (StreamQosChannel, "on_tick", "monitoring.qos", None),
        (SensorGuard, "inspect", "monitoring.guard", None),
        (CapacityNormalizer, "normalize", "monitoring.normalize", None),
        (RepresentativeSet, "assign", "mds.dedup", None),
        (state_space_module, "place_point", "mds.place", None),
        (StateSpace, "refit", "mds.refit", None),
        (ModeModelBank, "observe", "trajectory.observe", None),
        (TrajectoryModel, "predict_candidates", "trajectory.sample", None),
        (StayAway, "on_tick", "core.period", None),
        (MappingPipeline, "map_measurement", "core.map", None),
        (StateSpace, "add_sample", "core.add_sample", None),
        (Predictor, "observe", "core.observe", None),
        (Predictor, "predict", "core.predict", None),
        (StateSpace, "violation_vote", "core.vote", None),
        (ModelHealthWatchdog, "check_and_heal", "core.watchdog", None),
        (ThrottleManager, "reconcile", "core.reconcile", None),
        (ThrottleManager, "step", "core.act", None),
        (FleetCoordinator, "on_cluster_tick", "fleet.round", None),
        (HostControllerCell, "observe", "fleet.cell", cell_host),
        (InterferenceScorer, "observe", "fleet.score", None),
        (MigrationSupervisor, "poll", "fleet.supervise", None),
        (MigrationSupervisor, "request", "fleet.supervise", None),
        (ControllerService, "pump", "service.pump", None),
        (ControllerService, "drain", "service.drain", None),
        (StreamAssembler, "offer", "service.offer", None),
        (StreamAssembler, "due", "service.due", None),
        (HostView, "apply", "service.view", None),
        (AckTracker, "pending_containers", "service.ack", None),
        (AckTracker, "submit", "service.ack", None),
        (AckTracker, "step", "service.ack", None),
        (AckTracker, "drain", "service.ack", None),
        (FleetQosAudit, "on_cluster_tick", "bench.audit", None),
        (faults.HostCrashInjector, "on_cluster_tick", "bench.faults", None),
        (faults.TelemetryBlackout, "on_cluster_tick", "bench.faults", None),
        (faults.StreamDropper, "poll", "bench.faults", None),
        (faults.StreamReorderer, "poll", "bench.faults", None),
        (faults.StreamDuplicator, "poll", "bench.faults", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[List[Tuple[object, str, object]]]:
    """Install the wrappers; restore every original attribute on exit.

    Yields ``(owner, attribute, original)`` so a test can check that the
    originals are back afterwards.
    """
    originals: List[Tuple[object, str, object]] = []
    try:
        for owner, attribute, name, host_of in patch_points():
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(tracer, original, name, host_of))
        yield originals
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)


#: Per-layer timing metrics: numerator span names (self time summed)
#: and the span whose call count is the denominator. A metric with more
#: than one numerator span is "per call of the last-named entry point".
TIMINGS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "sim.step_self_us": (("sim.host_step", "sim.cluster_step"), "sim.host_step"),
    "monitoring.collect_us": (("monitoring.collect", "monitoring.qos"), "monitoring.collect"),
    "monitoring.guard_us": (("monitoring.guard",), "monitoring.guard"),
    "monitoring.normalize_us": (("monitoring.normalize",), "monitoring.normalize"),
    "mds.dedup_us": (("mds.dedup",), "mds.dedup"),
    "mds.place_us": (("mds.place",), "mds.place"),
    "mds.refit_us": (("mds.refit",), "mds.refit"),
    "trajectory.observe_us": (("trajectory.observe",), "trajectory.observe"),
    "trajectory.sample_us": (("trajectory.sample",), "trajectory.sample"),
    "core.period_self_us": (("core.period",), "core.period"),
    "core.map_self_us": (("core.map", "core.add_sample"), "core.map"),
    "core.predict_self_us": (("core.observe", "core.predict"), "core.predict"),
    "core.vote_us": (("core.vote",), "core.vote"),
    "core.watchdog_us": (("core.watchdog",), "core.watchdog"),
    "core.act_us": (("core.reconcile", "core.act"), "core.act"),
    "fleet.round_self_us": (("fleet.round",), "fleet.round"),
    "fleet.cell_self_us": (("fleet.cell",), "fleet.cell"),
    "fleet.score_us": (("fleet.score",), "fleet.score"),
    "fleet.supervise_us": (("fleet.supervise",), "fleet.supervise"),
    "service.encode_us": (("service.encode",), "service.encode"),
    "service.assemble_us": (("service.offer", "service.due"), "service.due"),
    "service.view_us": (("service.view",), "service.view"),
    "service.ack_us": (("service.ack",), "service.view"),
    "service.pump_self_us": (("service.pump", "service.drain"), "service.pump"),
}

LAYERS = ("sim", "monitoring", "mds", "trajectory", "core", "fleet", "service", "bench")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The timing metrics of :data:`TIMINGS` plus each layer's share."""
    out: Dict[str, float] = {}
    for metric, (numerators, denominator) in TIMINGS.items():
        calls = tracer.calls(denominator)
        out[metric] = tracer.self_s(*numerators) / calls * 1e6 if calls else 0.0
    everything = sum(entry[2] for entry in tracer.stats.values())
    for layer in LAYERS:
        mine = sum(
            entry[2]
            for name, entry in tracer.stats.items()
            if name.split(".", 1)[0] == layer
        )
        out[f"{layer}.self_share_pct"] = 100.0 * mine / everything if everything else 0.0
    return out
