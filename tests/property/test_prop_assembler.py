"""The per-container assembler against its per-cell original.

``tests/support/assembler_reference.py`` keeps the assembler as it was
when every sample was filed cell by cell. On any stream — any
watermark, reordered, duplicated, late, holed or wholly-missing ticks,
NaN and infinite values, unknown metrics, a container that goes silent
long enough to retire and then comes back, a late header, malformed
records in between — the program must close the same ticks, bit for
bit, and count the same delivery census.
"""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observation import METRICS
from repro.service.assembler import RETIRE_AFTER, PassthroughAssembler, StreamAssembler
from tests.support.assembler_reference import (
    ReferencePassthroughAssembler,
    ReferenceStreamAssembler,
)

NAMES = ("a", "b", "c", "sens")
CAPACITY = {"cpu": 8.0, "memory": 8192.0, "memory_bw": 1e4, "disk_io": 150.0, "network": 1e3}
MALFORMED = (
    ["sample", 0],
    {"kind": "sample", "tick": True, "container": "a", "metrics": {"cpu": 1.0}},
    {"kind": "sample", "tick": 1, "container": "a", "metrics": {"cpu": True}},
    {"kind": "sample", "tick": 1, "container": "a", "metrics": {"cpu": "2.5"}},
    {"kind": "sample", "tick": 1, "container": 7, "metrics": {"cpu": 1.0}},
    {"kind": "state", "tick": 1, "container": "a", "finished": "false"},
    {"kind": "qos", "tick": 1, "value": True, "threshold": 0.9},
    {"kind": "qos", "tick": 1, "value": 1.0, "threshold": "0.9"},
    {"kind": "header", "capacity": {**CAPACITY, "cpu": True}},
    {"kind": "header", "capacity": {"cpu": 4.0}},
)

values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
)
full_metrics = st.fixed_dictionaries({metric: values for metric in METRICS})
any_metrics = st.dictionaries(st.sampled_from(METRICS + ("gpu",)), values, max_size=6)
metrics = st.one_of(full_metrics, full_metrics, any_metrics)
delays = st.sampled_from((0, 0, 0, 0, 1, 2, 3, 5, 7))


@st.composite
def streams(draw):
    """``(watermark, batches)``: the records of each poll, in arrival order."""
    watermark = draw(st.integers(0, 3))
    ticks = draw(st.integers(1, 2 * RETIRE_AFTER + 8))
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    silent_name = draw(st.sampled_from(names))
    silent_from = draw(st.integers(0, ticks))
    silent_to = silent_from + draw(st.sampled_from((0, RETIRE_AFTER, RETIRE_AFTER + 3)))
    missing_ticks = draw(st.sets(st.integers(0, ticks - 1), max_size=3))
    arrivals = []  # (arrival, record)
    for tick in range(ticks):
        if tick in missing_ticks:
            continue
        for name in names:
            if name == silent_name and silent_from <= tick < silent_to:
                continue
            base = {"tick": tick, "host": "h", "container": name}
            if draw(st.integers(0, 5)):
                copies = 1 + (draw(st.integers(0, 6)) == 0)
                for _ in range(copies):
                    record = {**base, "kind": "sample", "metrics": draw(metrics)}
                    arrivals.append((tick + draw(delays), record))
            if draw(st.integers(0, 2)) == 0:
                record = {
                    **base,
                    "kind": "state",
                    "state": draw(st.sampled_from(("running", "paused", "stopped", "odd"))),
                    "finished": draw(st.booleans()),
                    "sensitive": name == "sens",
                }
                arrivals.append((tick + draw(delays), record))
        if draw(st.integers(0, 2)) == 0:
            qos = {"kind": "qos", "tick": tick, "host": "h", "container": "sens",
                   "value": draw(values), "threshold": draw(values)}
            arrivals.append((tick + draw(delays), qos))
    if draw(st.booleans()):
        kinds = draw(st.dictionaries(
            st.sampled_from(NAMES), st.sampled_from(("sensitive", "batch")), max_size=3
        ))
        header = {"kind": "header", "host": "h", "capacity": CAPACITY,
                  "containers": kinds, "sensitive": "sens"}
        arrivals.append((draw(st.integers(0, ticks + 2)), header))
    for _ in range(draw(st.integers(0, 3))):
        arrivals.append((draw(st.integers(0, ticks + 2)), draw(st.sampled_from(MALFORMED))))
    arrivals.sort(key=lambda pair: pair[0])
    batches = {}
    for arrival, record in arrivals:
        batches.setdefault(arrival, []).append(record)
    return watermark, [batches[arrival] for arrival in sorted(batches)]


def bits(closed):
    """A closed tick as comparable data: every float as its eight bytes."""
    def exact(number):
        return struct.pack("<d", number)

    rows = [
        (row.name, tuple(exact(x) for x in row.usage), row.state, row.finished,
         row.sensitive, row.app)
        for row in closed.rows
    ]
    qos = None if closed.qos is None else tuple(exact(x) for x in closed.qos)
    return closed.tick, rows, qos


def drive(ours, theirs, batches):
    """Feed both assemblers the same polls; demand equal closes each time."""
    for batch in batches:
        for record in batch:
            ours.offer(record)
            theirs.offer(record)
        assert [bits(c) for c in ours.due()] == [bits(c) for c in theirs.due()]
        assert (ours.max_seen, ours.last_closed) == (theirs.max_seen, theirs.last_closed)
        assert ours.header == theirs.header
    assert [bits(c) for c in ours.due(force=True)] == [
        bits(c) for c in theirs.due(force=True)
    ]
    assert ours.summary() == theirs.summary()


class TestAssemblerIdentity:
    @settings(max_examples=150, deadline=None)
    @given(streams())
    def test_stream_assembler_matches_the_per_cell_original(self, stream):
        watermark, batches = stream
        drive(StreamAssembler(watermark=watermark), ReferenceStreamAssembler(watermark), batches)

    @settings(max_examples=75, deadline=None)
    @given(streams())
    def test_passthrough_matches_the_per_cell_original(self, stream):
        _, batches = stream
        drive(PassthroughAssembler(), ReferencePassthroughAssembler(), batches)

    def test_a_silent_container_retires_and_returns_alike(self):
        """The retirement round trip, pinned without the generator."""
        batches = []
        for tick in range(3 * RETIRE_AFTER):
            batch = [{"kind": "sample", "tick": tick, "container": "a",
                      "metrics": dict.fromkeys(METRICS, float(tick))}]
            if not RETIRE_AFTER // 2 < tick < 2 * RETIRE_AFTER:
                batch.append({"kind": "sample", "tick": tick, "container": "b",
                              "metrics": {"cpu": float(tick), "memory": math.nan}})
            batches.append(batch)
        ours, theirs = StreamAssembler(watermark=1), ReferenceStreamAssembler(1)
        drive(ours, theirs, batches)
        assert ours.summary()["cells_retired"] == 2
