"""Watermark reassembly of a disordered metric stream into closed ticks.

A real metric transport delivers samples late, twice, out of order, or
not at all. The controller, by contrast, wants exactly one row per
container per tick, in tick order, *now*. The :class:`StreamAssembler`
bridges the two with a watermark protocol, and is the stream side's one
container table: it admits each container (from the header, a state
record or a usage-only sample record), holds its lifecycle state, and
retires it when it departs.

* records for tick ``t`` are buffered until the watermark passes —
  i.e. until a record for tick ``t + watermark`` (or later) has been
  seen — then tick ``t`` is **closed** and delivered in order as one
  :class:`~repro.observation.ContainerRow` per admitted container;
* duplicates within a ``(tick, container, metric)`` cell keep the
  first-seen value (``stream.duplicated``);
* records older than the newest seen tick but not yet closed are
  accepted and counted ``stream.reordered`` — buffering is exactly
  what makes them usable;
* records for already-closed ticks are counted ``stream.late`` and
  dropped — the controller has moved on;
* records of the wrong shape (not a mapping, a non-integer tick, a
  non-numeric value, a container name that is not a string, a
  ``finished`` / ``sensitive`` flag that is not a boolean, a header
  whose capacity is not five finite positive numbers) or with a tick
  more than :data:`MAX_TICK_JUMP` ahead of the newest one seen are
  counted ``stream.malformed`` and dropped whole — untrusted input is
  rejected with a counted reason, never an exception out of
  :meth:`~StreamAssembler.offer`. A state this build does not know
  reads as running; a metric it does not know is ignored;
* cells still missing at close are counted ``stream.dropped``, filled
  from that cell's last delivered value when one exists
  (``stream.imputed``) or NaN otherwise, and the close is counted
  partial (``stream.ticks_closed_partial``) — *partial-but-bounded*
  data instead of blocking;
* a cell missing for ``RETIRE_AFTER`` *consecutive* closes is retired
  (``stream.cells_retired``): the container has left the host (fleet
  migration, removal) rather than dropped a sample, so holding its
  last value would impute a ghost forever. A container whose last
  cell retires leaves the table, and with it the controller's
  Observation. Transient faults never trip this — at a 5% drop rate,
  8 consecutive misses is a :math:`0.05^8` event. Gap ticks do not
  advance retirement streaks (a wholly-missing tick is a transport
  hole, not a departure), and a departed container is admitted afresh
  the moment a record for it reappears;
* wholly-missing ticks between closures are synthesized as NaN-valued
  gap ticks (``stream.gap_ticks``) so the controller's existing
  :class:`~repro.monitoring.guard.SensorGuard` performs the imputation
  and its staleness accounting, exactly as for an in-process sensor
  dropout.

:class:`PassthroughAssembler` is the ablation arm: the same record
ingest (:meth:`StreamAssembler.offer` is the one place a wire record
is decoded by its ``kind``) and the same container table, with no
watermark, no dedup and zero-fill for missing cells — what a naive
stream consumer does, and what ``benchmarks/bench_stream_service.py``
shows degrading far beyond the assembled arm under the same faults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.observation import CREATED, LIFECYCLE, METRICS, RUNNING, ZERO_USAGE, ContainerRow
from repro.telemetry.registry import MetricRegistry

#: A metric cell address within one tick: ``(container, metric index)``,
#: the index into :data:`~repro.observation.METRICS`.
CellKey = Tuple[str, int]

#: A container's lifecycle as the stream reports it:
#: ``(state, finished, sensitive)``.
Lifecycle = Tuple[str, bool, bool]

_METRIC_INDEX = {metric: index for index, metric in enumerate(METRICS)}

#: Furthest a record's tick may lie ahead of the newest tick seen so far.
#: Every tick up to the newest one is closed, gaps included, so one
#: record far ahead would make :meth:`StreamAssembler.due` synthesize
#: that many gap ticks. A host that crashes and recovers resumes about
#: 30 ticks on; a stream that resumes further on than this is rejected
#: record by record, and the service reports it stalled.
MAX_TICK_JUMP = 1000

#: Consecutive non-gap closes a cell may miss before it is retired from
#: the expected set (its container is presumed to have left the host).
RETIRE_AFTER = 8


@dataclass
class ClosedTick:
    """One assembled tick, ready for the controller.

    Attributes
    ----------
    tick:
        The data tick this closure describes.
    rows:
        One row per container in the table, in admission order: usage
        in :data:`~repro.observation.METRICS` order (an imputed cell
        carries its last delivered value, a cell with no history and
        every cell of a gap tick NaN, a metric never streamed 0.0) and
        the lifecycle the stream last reported. ``app`` is unset; the
        :class:`~repro.service.views.HostView` binds it.
    qos:
        ``(value, threshold)`` when the sensitive application reported
        QoS this tick, else ``None``.
    """

    tick: int
    rows: Tuple[ContainerRow, ...]
    qos: Optional[Tuple[float, float]] = None


@dataclass
class _PendingTick:
    cells: Dict[CellKey, float] = field(default_factory=dict)
    states: Dict[str, Lifecycle] = field(default_factory=dict)
    qos: Optional[Tuple[float, float]] = None


class StreamAssembler:
    """Reorder, deduplicate and close a metric stream by watermark.

    Parameters
    ----------
    watermark:
        Ticks of reorder slack: tick ``t`` closes once a record for
        ``t + watermark`` has been seen. ``0`` closes each tick as
        soon as any record for it arrives (no reorder tolerance).
    registry:
        Shared :class:`~repro.telemetry.registry.MetricRegistry` for
        the ``stream.*`` delivery counters; a private registry is
        created when none is given.
    """

    #: Duplicate policy: the first value of a cell (or QoS report)
    #: wins and later ones are counted; the ablation overwrites.
    _first_wins = True

    def __init__(
        self,
        watermark: int = 2,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        if watermark < 0:
            raise ValueError("watermark must be non-negative")
        self.watermark = watermark
        self.metrics = registry if registry is not None else MetricRegistry()
        self._c_dropped = self.metrics.counter(
            "stream.dropped", help="cells missing at tick close"
        )
        self._c_duplicated = self.metrics.counter(
            "stream.duplicated", help="duplicate cells discarded (first wins)"
        )
        self._c_reordered = self.metrics.counter(
            "stream.reordered", help="records that arrived behind a newer tick"
        )
        self._c_late = self.metrics.counter(
            "stream.late", help="records for already-closed ticks (dropped)"
        )
        self._c_imputed = self.metrics.counter(
            "stream.imputed", help="missing cells filled from their last value"
        )
        self._c_partial = self.metrics.counter(
            "stream.ticks_closed_partial", help="ticks closed with missing cells"
        )
        self._c_gaps = self.metrics.counter(
            "stream.gap_ticks", help="wholly-missing ticks synthesized as NaN"
        )
        self._c_retired = self.metrics.counter(
            "stream.cells_retired",
            help="cells retired after sustained absence (container departed)",
        )
        self._c_malformed = self.metrics.counter(
            "stream.malformed", help="wire records of the wrong shape (rejected)"
        )
        self.header: Optional[dict] = None
        self._pending: Dict[int, _PendingTick] = {}
        #: The container table: admission order -> lifecycle. The
        #: sensitive flag is fixed when a container is admitted.
        self._table: Dict[str, Lifecycle] = {}
        self._known_cells: Dict[CellKey, None] = {}  # insertion-ordered set
        self._miss_streak: Dict[CellKey, int] = {}
        self._last_value: Dict[CellKey, float] = {}
        self._max_seen: Optional[int] = None
        self._last_closed: Optional[int] = None

    # -- introspection ------------------------------------------------------
    @property
    def max_seen(self) -> Optional[int]:
        """Newest data tick any record has carried so far."""
        return self._max_seen

    @property
    def last_closed(self) -> Optional[int]:
        """Most recently closed tick (None before the first closure)."""
        return self._last_closed

    def summary(self) -> dict:
        """The ``stream.*`` delivery counters as plain ints."""
        return {
            "dropped": int(self._c_dropped.value),
            "duplicated": int(self._c_duplicated.value),
            "reordered": int(self._c_reordered.value),
            "late": int(self._c_late.value),
            "imputed": int(self._c_imputed.value),
            "ticks_closed_partial": int(self._c_partial.value),
            "gap_ticks": int(self._c_gaps.value),
            "cells_retired": int(self._c_retired.value),
            "malformed": int(self._c_malformed.value),
        }

    # -- ingestion ----------------------------------------------------------
    def offer(self, record: dict) -> None:
        """Accept one wire record (any order, any number of times).

        A record of the wrong shape — not a mapping, a non-integer
        tick, a non-numeric value, a container name that is not a
        string, a ``finished`` / ``sensitive`` flag that is not a
        boolean, a header without five finite positive capacities — or
        one whose tick lies more than :data:`MAX_TICK_JUMP` ahead of
        :attr:`max_seen` is counted ``stream.malformed`` and dropped
        whole (``max_seen`` stays where it was): every field is decoded
        before anything of the record is applied, so the next
        well-formed record for the same tick lands as if the bad one
        had never arrived (and the next valid header is the one
        adopted).
        """
        try:
            kind = record.get("kind")
            if kind == "header":
                containers = sorted(record.get("containers", {}).items())
                bounds = [float(record.get("capacity").get(m)) for m in METRICS]
                if not all(0.0 < bound < math.inf for bound in bounds):
                    raise ValueError("capacity must be five finite positive bounds")
            else:
                tick = record.get("tick")
                if not isinstance(tick, int):
                    raise TypeError("tick must be an integer")
                container = record.get("container", "")
                if kind in ("sample", "state") and not isinstance(container, str):
                    raise TypeError("container must be a string")
                if kind == "sample":
                    cells = {
                        (container, _METRIC_INDEX[metric]): float(value)
                        for metric, value in record.get("metrics", {}).items()
                        if metric in _METRIC_INDEX
                    }
                elif kind == "state":
                    state = record.get("state", RUNNING)
                    flags = (record.get("finished", False), record.get("sensitive", False))
                    if not all(isinstance(flag, bool) for flag in flags):
                        raise TypeError("finished and sensitive must be booleans")
                    lifecycle = (state if state in LIFECYCLE else RUNNING, *flags)
                elif kind == "qos":
                    value = record.get("value")
                    threshold = record.get("threshold")
                    qos = (
                        (float(value), float(threshold))
                        if value is not None and threshold is not None
                        else None
                    )
        except (AttributeError, TypeError, ValueError):
            self._c_malformed.inc()
            return
        if kind == "header":
            if self.header is None:
                self.header = dict(record)
                for name, c_kind in containers:
                    self._table.setdefault(name, (CREATED, False, c_kind == "sensitive"))
            return
        if self._last_closed is not None and tick <= self._last_closed:
            self._c_late.inc()
            return
        max_seen = self._max_seen
        if max_seen is None or tick > max_seen:
            if max_seen is not None and tick - max_seen > MAX_TICK_JUMP:
                self._c_malformed.inc()
                return
            self._max_seen = tick
        elif tick < max_seen:
            self._c_reordered.inc()
        pending = self._pending.setdefault(tick, _PendingTick())
        if kind == "sample":
            for key, value in cells.items():
                if key in pending.cells and self._first_wins:
                    self._c_duplicated.inc()
                    continue
                pending.cells[key] = value
                self._known_cells.setdefault(key, None)
        elif kind == "state":
            pending.states[container] = lifecycle
        elif kind == "qos":
            if qos is not None and (pending.qos is None or not self._first_wins):
                pending.qos = qos

    # -- closing ------------------------------------------------------------
    def due(self, force: bool = False) -> List[ClosedTick]:
        """Close every tick whose watermark expired, in order.

        With ``force=True`` everything buffered closes regardless of
        the watermark — the drain path.
        """
        if self._max_seen is None:
            return []
        horizon = self._max_seen if force else self._max_seen - self.watermark
        start = (
            self._last_closed + 1
            if self._last_closed is not None
            else (min(self._pending) if self._pending else horizon + 1)
        )
        closed: List[ClosedTick] = []
        for tick in range(start, horizon + 1):
            closed.append(self._close(tick))
            self._last_closed = tick
        return closed

    def _close(self, tick: int) -> ClosedTick:
        pending = self._pending.pop(tick, None)
        usage: Dict[str, List[float]] = {}
        if pending is None or (not pending.cells and not pending.states):
            self._c_gaps.inc()
            for container, index in self._known_cells:
                usage.setdefault(container, [0.0] * len(METRICS))[index] = math.nan
            qos = pending.qos if pending is not None else None
            return self._emit(tick, usage, {}, qos)

        partial = False
        retired: Set[str] = set()
        for key in list(self._known_cells):
            container, index = key
            if key in pending.cells:
                value = pending.cells[key]
                self._last_value[key] = value
                self._miss_streak.pop(key, None)
            else:
                streak = self._miss_streak.get(key, 0) + 1
                if streak >= RETIRE_AFTER:
                    # Sustained absence: the container has left the host
                    # (migration, removal) — stop expecting the cell
                    # instead of imputing a ghost forever.
                    del self._known_cells[key]
                    self._miss_streak.pop(key, None)
                    self._last_value.pop(key, None)
                    self._c_retired.inc()
                    retired.add(container)
                    continue
                self._miss_streak[key] = streak
                partial = True
                self._c_dropped.inc()
                if key in self._last_value:
                    value = self._last_value[key]
                    self._c_imputed.inc()
                else:
                    value = math.nan
            usage.setdefault(container, [0.0] * len(METRICS))[index] = value
        if partial:
            self._c_partial.inc()
        # A container with no expected cell left departed with its data.
        return self._emit(tick, usage, pending.states, pending.qos, retired - usage.keys())

    def _emit(
        self,
        tick: int,
        usage: Dict[str, List[float]],
        states: Dict[str, Lifecycle],
        qos: Optional[Tuple[float, float]],
        departed: Iterable[str] = (),
    ) -> ClosedTick:
        """Admit the tick's new containers (state records first, then
        usage-only ones, each in name order), apply its state records,
        retire ``departed`` and list the table as the tick's rows."""
        table = self._table
        for name in sorted(states.keys() - table.keys()):
            table[name] = states[name]
        for name in sorted(usage.keys() - table.keys()):
            table[name] = (CREATED, False, False)
        for name, (state, finished, _) in states.items():
            table[name] = (state, finished, table[name][2])
        for name in departed:
            table.pop(name, None)
        rows = tuple(
            ContainerRow(
                name,
                tuple(usage[name]) if name in usage else ZERO_USAGE,
                state,
                finished,
                sensitive,
            )
            for name, (state, finished, sensitive) in table.items()
        )
        return ClosedTick(tick, rows, qos)


class PassthroughAssembler(StreamAssembler):
    """The assembler-less ablation: apply records as they arrive.

    Shares :meth:`StreamAssembler.offer`'s record parsing and the
    container table, and changes three policies: no deduplication
    (duplicates overwrite, uncounted), no watermark (a tick closes the
    moment a newer one is seen, so delayed records of the old tick are
    lost), and no imputation (missing cells read 0.0 — the classic
    naive-consumer zero-fill that poisons the map — and skipped ticks
    never reach the controller at all: no gap synthesis). It reports
    no delivery census and never retires a cell. The drills swap arms
    without touching the service.
    """

    _first_wins = False

    def __init__(self) -> None:
        super().__init__(watermark=1)

    def summary(self) -> dict:
        return {}

    def due(self, force: bool = False) -> List[ClosedTick]:
        if self._max_seen is None:
            return []
        horizon = self._max_seen if force else self._max_seen - self.watermark
        closed: List[ClosedTick] = []
        for tick in sorted(self._pending):
            if tick > horizon:
                break
            pending = self._pending.pop(tick)
            usage: Dict[str, List[float]] = {}
            for key in self._known_cells:
                container, index = key
                usage.setdefault(container, [0.0] * len(METRICS))[index] = (
                    pending.cells.get(key, 0.0)
                )
            closed.append(self._emit(tick, usage, pending.states, pending.qos))
            self._last_closed = tick
        return closed
