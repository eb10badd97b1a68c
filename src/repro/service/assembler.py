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
  non-numeric value — a JSON boolean or a numeric text where a number
  belongs included — a container name that is not a string, a
  ``finished`` / ``sensitive`` flag that is not a boolean, a header
  whose capacity is not five finite positive numbers) or with a tick
  more than :data:`MAX_TICK_JUMP` ahead of the newest one seen are
  counted ``stream.malformed`` and dropped whole — untrusted input is
  rejected with a counted reason, never an exception out of
  :meth:`~StreamAssembler.offer`. A state this build does not know
  reads as running; a metric it does not know is ignored;
* cells still missing at close read NaN, are counted
  ``stream.dropped`` and make the close partial
  (``stream.ticks_closed_partial``) — *partial-but-bounded* data
  instead of blocking. The assembler imputes nothing: the
  controller's :class:`~repro.monitoring.guard.SensorGuard` holds the
  last good vector (``guard.imputed``), as for an in-process sensor
  dropout, so a half-delivered tick maps onto a state the host was in;
* a cell missing for ``RETIRE_AFTER`` *consecutive* closes is retired
  (``stream.cells_retired``): the container has left the host (fleet
  migration, removal) rather than dropped a sample. A container whose
  last cell retires leaves the table, and with it the controller's
  Observation; until then the guard bridges its NaN cells (hence
  ``RETIRE_AFTER - 1 <= STALENESS_BUDGET``). Transient faults never
  trip this — at a 5% drop rate, 8 consecutive misses is a
  :math:`0.05^8` event. Gap ticks do not advance retirement streaks
  (a wholly-missing tick is a transport hole, not a departure), and a
  departed container is admitted afresh the moment a record for it
  reappears — or, for a sample filed before its cell retired, when
  that sample's tick closes;
* wholly-missing ticks between closures are synthesized as NaN-valued
  gap ticks (``stream.gap_ticks``), imputed by the same guard.

:class:`PassthroughAssembler` is the ablation arm: the same record
ingest (:meth:`StreamAssembler.offer` is the one place a wire record
is decoded by its ``kind``) and the same container table, with no
watermark, no dedup and zero-fill for missing cells — what a naive
stream consumer does, and what ``benchmarks/bench_stream_service.py``
shows degrading far beyond the assembled arm under the same faults.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.observation import CREATED, LIFECYCLE, METRICS, RUNNING, ZERO_USAGE, ContainerRow
from repro.telemetry.registry import MetricRegistry

#: A container's lifecycle as the stream reports it:
#: ``(state, finished, sensitive)``.
Lifecycle = Tuple[str, bool, bool]

_METRIC_INDEX = {metric: index for index, metric in enumerate(METRICS)}
_WIDTH = len(METRICS)
_NO_CELLS: List[Optional[float]] = [None] * _WIDTH

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


def _number(value) -> float:
    """A wire number as a float (``float`` would take ``true`` and ``"2.5"``)."""
    if value.__class__ is not float and isinstance(value, (bool, str, bytes)):
        raise TypeError("a wire number must not be a bool or a text")
    return float(value)


class ClosedTick(NamedTuple):
    """One assembled tick, ready for the controller.

    Attributes
    ----------
    tick:
        The data tick this closure describes.
    rows:
        One row per container in the table, in admission order: usage
        in :data:`~repro.observation.METRICS` order (a cell missing at
        close and every cell of a gap tick NaN, a metric never
        streamed 0.0) and the lifecycle the stream last reported.
        ``app`` is unset; the :class:`~repro.service.views.HostView`
        binds it.
    qos:
        ``(value, threshold)`` when the sensitive application reported
        QoS this tick, else ``None``.
    """

    tick: int
    rows: Tuple[ContainerRow, ...]
    qos: Optional[Tuple[float, float]] = None


@dataclass
class _PendingTick:
    rows: Dict[str, List[Optional[float]]] = field(default_factory=dict)
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
        self._pending: Dict[int, _PendingTick] = defaultdict(_PendingTick)
        #: The container table: admission order -> lifecycle. The
        #: sensitive flag is fixed when a container is admitted.
        self._table: Dict[str, Lifecycle] = {}
        #: Per container, 5 slots: the cells it streams; their misses.
        self._known: Dict[str, List[bool]] = {}
        self._miss_streak: Dict[str, List[int]] = {}
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
            "ticks_closed_partial": int(self._c_partial.value),
            "gap_ticks": int(self._c_gaps.value),
            "cells_retired": int(self._c_retired.value),
            "malformed": int(self._c_malformed.value),
        }

    # -- ingestion ----------------------------------------------------------
    def offer(self, record: dict) -> None:
        """Accept one wire record (any order, any number of times).

        A record of the wrong shape — not a mapping, a non-integer
        tick, a non-numeric value (a boolean or a text included), a
        container name that is not a string, a ``finished`` /
        ``sensitive`` flag that is not a boolean, a header without
        five finite positive capacities — or one whose tick lies more
        than :data:`MAX_TICK_JUMP` ahead of :attr:`max_seen` is counted
        ``stream.malformed`` and dropped whole (``max_seen`` stays where
        it was): every field is decoded before anything of the record
        is applied, so the next well-formed record for the same tick
        lands as if the bad one had never arrived (and the next valid
        header is the one adopted).
        """
        try:
            kind = record.get("kind")
            if kind == "header":
                containers = sorted(record.get("containers", {}).items())
                bounds = [_number(record.get("capacity").get(m)) for m in METRICS]
                if not all(0.0 < bound < math.inf for bound in bounds):
                    raise ValueError("capacity must be five finite positive bounds")
            else:
                tick = record.get("tick")
                if not isinstance(tick, int) or isinstance(tick, bool):
                    raise TypeError("tick must be an integer")
                container = record.get("container", "")
                if kind in ("sample", "state") and not isinstance(container, str):
                    raise TypeError("container must be a string")
                if kind == "sample":
                    row = [None] * _WIDTH
                    for metric, value in record.get("metrics", {}).items():
                        index = _METRIC_INDEX.get(metric)
                        if index is not None:
                            row[index] = value if value.__class__ is float else _number(value)
                elif kind == "state":
                    state = record.get("state", RUNNING)
                    finished = record.get("finished", False)
                    sensitive = record.get("sensitive", False)
                    if not (isinstance(finished, bool) and isinstance(sensitive, bool)):
                        raise TypeError("finished and sensitive must be booleans")
                    lifecycle = (state if state in LIFECYCLE else RUNNING, finished, sensitive)
                elif kind == "qos":
                    value = record.get("value")
                    threshold = record.get("threshold")
                    qos = (
                        (_number(value), _number(threshold))
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
        pending = self._pending[tick]
        if kind == "sample":
            held = pending.rows.get(container)
            if held is None:
                # The container's first record of the tick: filed whole.
                if row != _NO_CELLS:
                    pending.rows[container] = row
                    known = self._known.setdefault(container, [False] * _WIDTH)
                    if False in known:
                        known[:] = [k or v is not None for k, v in zip(known, row)]
                return
            for index, value in enumerate(row):
                if value is not None and held[index] is not None and self._first_wins:
                    self._c_duplicated.inc()
                elif value is not None:
                    held[index] = value
                    self._known.setdefault(container, [False] * _WIDTH)[index] = True
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
        if pending is None or (not pending.rows and not pending.states):
            self._c_gaps.inc()
            usage = {
                name: tuple(math.nan if cell else 0.0 for cell in known)
                for name, known in self._known.items()
            }
            qos = pending.qos if pending is not None else None
            return self._emit(tick, usage, {}, qos)

        # A cell filed while it was still expected and retired since:
        # expected afresh, as :meth:`offer` admits a first sample.
        for name, row in pending.rows.items():
            known = self._known.setdefault(name, [False] * _WIDTH)
            if False in known:
                known[:] = [k or v is not None for k, v in zip(known, row)]
        usage = {}
        streaks = self._miss_streak
        partial = False
        departed: List[str] = []
        for name, known in list(self._known.items()):
            row = pending.rows.get(name)
            if row and None not in row and False not in known and name not in streaks:
                usage[name] = tuple(row)  # complete, no streak: the row as it is
                continue
            # A row with a hole (or a streak to end): cell by cell.
            streak = streaks.setdefault(name, [0] * _WIDTH)
            cells = [0.0] * _WIDTH
            for index, value in enumerate(row or _NO_CELLS):
                if not known[index]:
                    continue
                if value is not None:
                    cells[index], streak[index] = value, 0
                    continue
                streak[index] += 1
                if streak[index] >= RETIRE_AFTER:
                    # Sustained absence: the container has left the host
                    # (migration, removal) — stop expecting the cell.
                    known[index], streak[index] = False, 0
                    self._c_retired.inc()
                    continue
                partial = True
                self._c_dropped.inc()
                cells[index] = math.nan
            if not any(streak):
                del streaks[name]
            if True in known:
                usage[name] = tuple(cells)
            else:
                # No expected cell left: the container departed with its data.
                departed.append(name)
                del self._known[name]
        if partial:
            self._c_partial.inc()
        return self._emit(tick, usage, pending.states, pending.qos, departed)

    def _emit(
        self,
        tick: int,
        usage: Dict[str, Tuple[float, ...]],
        states: Dict[str, Lifecycle],
        qos: Optional[Tuple[float, float]],
        departed: Iterable[str] = (),
    ) -> ClosedTick:
        """Admit the tick's new containers (state records first, then
        usage-only ones, each in name order), apply its state records,
        retire ``departed`` and list the table as the tick's rows."""
        table = self._table
        if not states.keys() <= table.keys():
            for name in sorted(states.keys() - table.keys()):
                table[name] = states[name]
        if not usage.keys() <= table.keys():
            for name in sorted(usage.keys() - table.keys()):
                table[name] = (CREATED, False, False)
        for name, (state, finished, _) in states.items():
            table[name] = (state, finished, table[name][2])
        for name in departed:
            table.pop(name, None)
        rows = tuple([
            ContainerRow(name, usage.get(name, ZERO_USAGE), state, finished, sensitive)
            for name, (state, finished, sensitive) in table.items()
        ])
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
            rows = pending.rows
            usage = {
                name: tuple(0.0 if value is None else value for value in rows.get(name, _NO_CELLS))
                for name in self._known
            }
            closed.append(self._emit(tick, usage, pending.states, pending.qos))
            self._last_closed = tick
        return closed
