"""The per-cell stream assembler, kept as a test oracle.

Until commit cd61e6e :class:`~repro.service.assembler.StreamAssembler`
filed every sample into a ``(container, metric index) -> float`` dict
per pending tick, kept an insertion-ordered set of known cells and a
miss streak per cell, and rebuilt each closed tick cell by cell. The
bodies below are the ones that commit ran, with two fixes applied to
both sides since: a ``bool`` tick and a ``bool`` or text value,
QoS value / threshold or header capacity are malformed (``float``
used to read ``true`` as 1.0 and ``"2.5"`` as 2.5), and a cell filed
for a tick before the cell retired is expected afresh when that tick
closes (it used to be dropped without a count). Nothing under
``src/`` imports this module; ``tests/property/test_prop_assembler.py``
drives it side by side with the per-container rows and demands equal
closed ticks and an equal delivery census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.observation import CREATED, LIFECYCLE, METRICS, RUNNING, ZERO_USAGE, ContainerRow
from repro.service.assembler import MAX_TICK_JUMP, RETIRE_AFTER, ClosedTick

CellKey = Tuple[str, int]
Lifecycle = Tuple[str, bool, bool]

_METRIC_INDEX = {metric: index for index, metric in enumerate(METRICS)}


def _number(value) -> float:
    """A wire number as a float; a bool or a text is malformed."""
    if isinstance(value, (bool, str, bytes)):
        raise TypeError("a wire number must not be a bool or a text")
    return float(value)


@dataclass
class _PendingTick:
    cells: Dict[CellKey, float] = field(default_factory=dict)
    states: Dict[str, Lifecycle] = field(default_factory=dict)
    qos: Optional[Tuple[float, float]] = None


class ReferenceStreamAssembler:
    """Watermark assembly, one dict entry per ``(container, metric)`` cell."""

    _first_wins = True

    def __init__(self, watermark: int = 2) -> None:
        if watermark < 0:
            raise ValueError("watermark must be non-negative")
        self.watermark = watermark
        self.counts = dict.fromkeys(
            ("dropped", "duplicated", "reordered", "late", "ticks_closed_partial",
             "gap_ticks", "cells_retired", "malformed"),
            0,
        )
        self.header: Optional[dict] = None
        self._pending: Dict[int, _PendingTick] = {}
        self._table: Dict[str, Lifecycle] = {}
        self._known_cells: Dict[CellKey, None] = {}
        self._miss_streak: Dict[CellKey, int] = {}
        self._max_seen: Optional[int] = None
        self._last_closed: Optional[int] = None

    @property
    def max_seen(self) -> Optional[int]:
        return self._max_seen

    @property
    def last_closed(self) -> Optional[int]:
        return self._last_closed

    def summary(self) -> dict:
        return dict(self.counts)

    def offer(self, record: dict) -> None:
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
                    cells = {
                        (container, _METRIC_INDEX[metric]): _number(value)
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
                        (_number(value), _number(threshold))
                        if value is not None and threshold is not None
                        else None
                    )
        except (AttributeError, TypeError, ValueError):
            self.counts["malformed"] += 1
            return
        if kind == "header":
            if self.header is None:
                self.header = dict(record)
                for name, c_kind in containers:
                    self._table.setdefault(name, (CREATED, False, c_kind == "sensitive"))
            return
        if self._last_closed is not None and tick <= self._last_closed:
            self.counts["late"] += 1
            return
        max_seen = self._max_seen
        if max_seen is None or tick > max_seen:
            if max_seen is not None and tick - max_seen > MAX_TICK_JUMP:
                self.counts["malformed"] += 1
                return
            self._max_seen = tick
        elif tick < max_seen:
            self.counts["reordered"] += 1
        pending = self._pending.setdefault(tick, _PendingTick())
        if kind == "sample":
            for key, value in cells.items():
                if key in pending.cells and self._first_wins:
                    self.counts["duplicated"] += 1
                    continue
                pending.cells[key] = value
                self._known_cells.setdefault(key, None)
        elif kind == "state":
            pending.states[container] = lifecycle
        elif kind == "qos":
            if qos is not None and (pending.qos is None or not self._first_wins):
                pending.qos = qos

    def due(self, force: bool = False) -> List[ClosedTick]:
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
            self.counts["gap_ticks"] += 1
            for container, index in self._known_cells:
                usage.setdefault(container, [0.0] * len(METRICS))[index] = math.nan
            qos = pending.qos if pending is not None else None
            return self._emit(tick, usage, {}, qos)

        for key in pending.cells:
            self._known_cells.setdefault(key, None)
        partial = False
        retired: Set[str] = set()
        for key in list(self._known_cells):
            container, index = key
            value = pending.cells.get(key, math.nan)
            if key in pending.cells:
                self._miss_streak.pop(key, None)
            else:
                streak = self._miss_streak.get(key, 0) + 1
                if streak >= RETIRE_AFTER:
                    del self._known_cells[key]
                    self._miss_streak.pop(key, None)
                    self.counts["cells_retired"] += 1
                    retired.add(container)
                    continue
                self._miss_streak[key] = streak
                partial = True
                self.counts["dropped"] += 1
            usage.setdefault(container, [0.0] * len(METRICS))[index] = value
        if partial:
            self.counts["ticks_closed_partial"] += 1
        return self._emit(tick, usage, pending.states, pending.qos, retired - usage.keys())

    def _emit(
        self,
        tick: int,
        usage: Dict[str, List[float]],
        states: Dict[str, Lifecycle],
        qos: Optional[Tuple[float, float]],
        departed: Iterable[str] = (),
    ) -> ClosedTick:
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


class ReferencePassthroughAssembler(ReferenceStreamAssembler):
    """The ablation: overwrite, zero-fill, no gap ticks, never retire."""

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
