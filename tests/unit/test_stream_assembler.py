"""Unit tests for the watermark stream assembler and its ablation.

Every delivery pathology the chaos drills inject has a pinned-down
local semantics here: reorder inside the watermark is absorbed,
duplicates keep the first value, late records are dropped, missing
cells read NaN (the controller's sensor guard is the one imputer),
wholly-missing ticks become NaN gap ticks, and sustained absence
retires a cell (the fleet migration case). :class:`PassthroughAssembler` is pinned to the naive
behaviours the ablation arm needs: overwrite, zero-fill, silent loss.
"""

import math

import pytest

from repro.core.config import StayAwayConfig
from repro.experiments.scenarios import Scenario
from repro.experiments.stream_chaos import record_reference, replay_records
from repro.service import ControllerService, QueueSource
from repro.service.assembler import (
    MAX_TICK_JUMP,
    RETIRE_AFTER,
    PassthroughAssembler,
    StreamAssembler,
)


def sample(tick, container="c0", metrics=None, host="host0"):
    return {
        "kind": "sample",
        "tick": tick,
        "host": host,
        "container": container,
        "metrics": metrics if metrics is not None else {"cpu": float(tick)},
    }


def state(tick, container="c0", value="running", finished=False):
    return {
        "kind": "state",
        "tick": tick,
        "host": "host0",
        "container": container,
        "state": value,
        "finished": finished,
    }


def rows(closed):
    """``{container: row}`` of one closed tick."""
    return {row.name: row for row in closed.rows}


def cpu(closed, container="c0"):
    return rows(closed)[container].usage[0]


def qos(tick, value=1.0, threshold=0.9):
    return {
        "kind": "qos",
        "tick": tick,
        "host": "host0",
        "container": "sens",
        "value": value,
        "threshold": threshold,
    }


CAPACITY = {
    "cpu": 8.0,
    "memory": 8192.0,
    "memory_bw": 10_000.0,
    "disk_io": 150.0,
    "network": 1000.0,
}

HEADER = {
    "kind": "header",
    "host": "host0",
    "capacity": CAPACITY,
    "containers": {"c0": "batch", "sens": "sensitive"},
    "sensitive": "sens",
}


class TestWatermarkClosing:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamAssembler(watermark=-1)

    def test_nothing_closes_before_watermark_passes(self):
        assembler = StreamAssembler(watermark=2)
        assembler.offer(sample(0))
        assembler.offer(sample(1))
        assert assembler.due() == []
        assembler.offer(sample(3))  # both were buffered, not lost
        assert [closed.tick for closed in assembler.due()] == [0, 1]

    def test_tick_closes_when_watermark_passes(self):
        assembler = StreamAssembler(watermark=2)
        for tick in range(4):
            assembler.offer(sample(tick))
        closed = assembler.due()
        assert [c.tick for c in closed] == [0, 1]
        assert assembler.last_closed == 1
        assert cpu(closed[0]) == 0.0
        assert assembler.summary()["ticks_closed_partial"] == 0

    def test_zero_watermark_closes_as_soon_as_seen(self):
        # t closes once a record for t + watermark arrives; with 0 that
        # is t itself, so each poll's newest tick closes immediately.
        assembler = StreamAssembler(watermark=0)
        assembler.offer(sample(0))
        assert [c.tick for c in assembler.due()] == [0]

    def test_force_closes_everything(self):
        assembler = StreamAssembler(watermark=5)
        for tick in range(3):
            assembler.offer(sample(tick))
        assert assembler.due() == []
        closed = assembler.due(force=True)
        assert [c.tick for c in closed] == [0, 1, 2]

    def test_closes_in_tick_order_despite_arrival_order(self):
        assembler = StreamAssembler(watermark=1)
        for tick in (2, 0, 1, 3):
            assembler.offer(sample(tick))
        assert [c.tick for c in assembler.due()] == [0, 1, 2]
        assert assembler.summary()["reordered"] == 2  # ticks 0 and 1


class TestDeliveryPathologies:
    def test_duplicate_cell_keeps_first_value(self):
        assembler = StreamAssembler(watermark=0)
        assembler.offer(sample(0, metrics={"cpu": 1.0}))
        assembler.offer(sample(0, metrics={"cpu": 99.0}))
        assembler.offer(sample(1))
        closed = assembler.due()
        assert cpu(closed[0]) == 1.0
        assert assembler.summary()["duplicated"] == 1

    def test_reordered_record_within_watermark_is_used(self):
        assembler = StreamAssembler(watermark=2)
        assembler.offer(sample(1))
        assembler.offer(sample(0, metrics={"cpu": 7.0}))  # behind tick 1
        for tick in (2, 3):
            assembler.offer(sample(tick))
        closed = assembler.due()
        assert cpu(closed[0]) == 7.0
        assert assembler.summary()["reordered"] == 1
        assert assembler.summary()["ticks_closed_partial"] == 0

    def test_late_record_for_closed_tick_is_dropped(self):
        assembler = StreamAssembler(watermark=0)
        assembler.offer(sample(0))
        assembler.offer(sample(1))
        assembler.due()
        assembler.offer(sample(0, metrics={"cpu": 123.0}))
        assert assembler.summary()["late"] == 1
        assert assembler.due() == []  # late record not buffered

    def test_missing_cell_reads_nan(self):
        assembler = StreamAssembler(watermark=0)
        assembler.offer(sample(0, metrics={"cpu": 3.0}))
        assembler.offer(sample(0, container="c1", metrics={"cpu": 5.0}))
        assembler.offer(sample(1, metrics={"cpu": 4.0}))  # c1 missing
        assembler.offer(sample(2))
        assembler.offer(sample(2, container="c1"))
        closed = assembler.due()
        # The cell's last value (5.0) is not carried forward, and the
        # row's other cells and the delivered neighbour are untouched.
        assert math.isnan(cpu(closed[1], "c1"))
        assert rows(closed[1])["c1"].usage[1:] == (0.0,) * 4
        assert cpu(closed[1]) == 4.0
        assert cpu(closed[2], "c1") == 2.0
        summary = assembler.summary()
        assert "imputed" not in summary
        assert summary["dropped"] == 1
        assert summary["ticks_closed_partial"] == 1

    def test_missing_cell_with_no_history_is_nan(self):
        assembler = StreamAssembler(watermark=0)
        assembler.offer(sample(0, metrics={"cpu": 1.0}))
        # c1 registers at tick 1, so its tick-0 cell closes with no
        # delivered value at all.
        assembler.offer(sample(1, container="c1", metrics={"cpu": 2.0}))
        closed_0 = assembler.due()[0]
        assert math.isnan(cpu(closed_0, "c1"))
        summary = assembler.summary()  # c1 at tick 0 and c0 at tick 1
        assert (summary["dropped"], summary["ticks_closed_partial"]) == (2, 2)
        assembler.offer(sample(2, container="c1"))
        closed_1 = assembler.due()[-1]  # c0 missing with history: NaN all the same
        assert math.isnan(cpu(closed_1))
        assert cpu(closed_1, "c1") == 2.0

    def test_gap_tick_synthesized_as_nan(self):
        assembler = StreamAssembler(watermark=0)
        assembler.offer(sample(0, metrics={"cpu": 1.0}))
        assembler.offer(sample(3))  # ticks 1, 2 never stream
        closed = assembler.due()
        assert [c.tick for c in closed] == [0, 1, 2, 3]
        assert all(math.isnan(cpu(c)) for c in closed[1:3])
        assert assembler.summary()["gap_ticks"] == 2


class TestCellRetirement:
    def feed(self, assembler, tick, containers):
        for container in containers:
            assembler.offer(sample(tick, container=container))

    def test_departed_container_retires_after_streak(self):
        assembler = StreamAssembler(watermark=0)
        self.feed(assembler, 0, ["c0", "gone"])
        for tick in range(1, RETIRE_AFTER + 3):
            self.feed(assembler, tick, ["c0"])  # "gone" left the host
        closed = assembler.due()
        summary = assembler.summary()
        assert summary["cells_retired"] == 1  # one metric cell
        # The first RETIRE_AFTER - 1 misses read NaN, the next retires.
        assert summary["dropped"] == RETIRE_AFTER - 1
        assert all(math.isnan(cpu(c, "gone")) for c in closed[1:RETIRE_AFTER])
        # Every miss before the retiring one closed partial; after it
        # the closes are complete again and the container is gone.
        assert summary["ticks_closed_partial"] == RETIRE_AFTER - 1
        assert "gone" in rows(closed[RETIRE_AFTER - 1])
        assert all("gone" not in rows(c) for c in closed[RETIRE_AFTER:])

    def test_intermittent_cell_is_not_retired(self):
        assembler = StreamAssembler(watermark=0)
        for tick in range(4 * RETIRE_AFTER):
            # "flaky" misses every other tick: its streak never passes 1.
            containers = ["c0"] if tick % 2 else ["c0", "flaky"]
            self.feed(assembler, tick, containers)
        assembler.due()
        assert assembler.summary()["cells_retired"] == 0

    def test_gap_ticks_do_not_advance_retirement(self):
        assembler = StreamAssembler(watermark=0)
        self.feed(assembler, 0, ["c0"])
        gaps = 2 * RETIRE_AFTER
        self.feed(assembler, gaps + 1, ["c0"])  # gap ticks in between
        assembler.offer(sample(gaps + 2))
        assembler.due()
        summary = assembler.summary()
        assert summary["gap_ticks"] == gaps
        assert summary["cells_retired"] == 0

    def test_retired_container_state_dropped_and_readmitted(self):
        assembler = StreamAssembler(watermark=0)
        assembler.offer(HEADER)
        self.feed(assembler, 0, ["c0", "gone"])
        assembler.offer(state(0, "gone"))
        back_at = RETIRE_AFTER + 2
        for tick in range(1, back_at):
            self.feed(assembler, tick, ["c0"])
        closed = assembler.due()
        assert "gone" not in rows(closed[-1])
        # The container comes back: admitted afresh, at the table's end.
        self.feed(assembler, back_at, ["c0", "gone"])
        self.feed(assembler, back_at + 1, ["c0", "gone"])
        back = assembler.due()
        assert [row.name for row in back[0].rows] == ["c0", "sens", "gone"]
        assert cpu(back[0], "gone") == float(back_at)

    def test_sample_filed_before_its_container_retires_is_read(self):
        # "b" streams ticks 0-4, goes silent and retires at the close of
        # 12; its sample for 13 arrived before that close, while "b" was
        # still expected, and must reach tick 13's row, not vanish.
        assembler = StreamAssembler(watermark=2)
        closed = []
        for tick in range(21):
            here = tick <= 4 or tick in (13, 17, 18)
            self.feed(assembler, tick, ["a", "b"] if here else ["a"])
            closed += assembler.due()
        by_tick = {c.tick: c for c in closed}
        assert RETIRE_AFTER == 8  # the script: misses at closes 5-12
        assert "b" not in rows(by_tick[12])
        assert cpu(by_tick[13], "b") == 13.0
        assert math.isnan(cpu(by_tick[14], "b"))
        assert cpu(by_tick[17], "b") == 17.0
        # Misses 5-11 and 14-16 read NaN; the miss at 12 retires the cell.
        assert assembler.summary() == {
            "dropped": 10, "duplicated": 0, "reordered": 0, "late": 0,
            "ticks_closed_partial": 10, "gap_ticks": 0, "cells_retired": 1,
            "malformed": 0,
        }

    def test_passthrough_never_retires(self):
        assembler = PassthroughAssembler()
        self.feed(assembler, 0, ["c0", "gone"])
        for tick in range(1, 4 * RETIRE_AFTER):
            self.feed(assembler, tick, ["c0"])
        closed = assembler.due(force=True)
        assert assembler._c_retired.value == 0
        assert cpu(closed[-1], "gone") == 0.0  # zero-filled forever


class TestHeaderAndQos:
    def test_header_seeds_states_and_first_wins(self):
        assembler = StreamAssembler(watermark=0)
        assembler.offer(HEADER)
        assembler.offer({**HEADER, "host": "other"})
        assert assembler.header["host"] == "host0"
        assembler.offer(sample(0))
        assembler.offer(sample(1))
        closed = assembler.due()[0]
        assert rows(closed)["sens"][2:5] == ("created", False, True)
        assert rows(closed)["c0"][2:5] == ("created", False, False)

    def test_qos_and_state_flow_through(self):
        assembler = StreamAssembler(watermark=0)
        assembler.offer(sample(0))
        assembler.offer(state(0, "c0", "paused", finished=True))
        assembler.offer(qos(0, value=0.5))
        assembler.offer(sample(1))
        closed = assembler.due()[0]
        assert closed.qos == (0.5, 0.9)
        assert rows(closed)["c0"][2:5] == ("paused", True, False)

    def test_state_held_from_last_delivery(self):
        assembler = StreamAssembler(watermark=0)
        assembler.offer(sample(0))
        assembler.offer(state(0, "c0", "paused"))
        assembler.offer(sample(1))  # no state record this tick
        assembler.offer(sample(2))
        closed = assembler.due()
        assert rows(closed[1])["c0"].state == "paused"

    def test_unknown_state_reads_running_and_unknown_metric_is_ignored(self):
        assembler = StreamAssembler(watermark=0)
        assembler.offer(sample(0, metrics={"cpu": 1.0, "gpu": 9.0}))
        assembler.offer(state(0, "c0", "frozen"))
        assembler.offer(sample(1))
        row = rows(assembler.due()[0])["c0"]
        assert (row.usage, row.state) == ((1.0, 0.0, 0.0, 0.0, 0.0), "running")
        assert assembler.summary()["malformed"] == 0

    def test_admission_order_is_header_then_state_records_then_usage_only(self):
        assembler = StreamAssembler(watermark=0)
        assembler.offer(HEADER)
        for container in ("b-usage", "a-usage"):
            assembler.offer(sample(0, container=container))
        assembler.offer({**state(0, "z-state"), "sensitive": True})
        assembler.offer(state(0, "y-state"))
        assembler.offer(sample(1))
        closed = assembler.due()[0]
        assert [row.name for row in closed.rows] == [
            "c0", "sens", "y-state", "z-state", "a-usage", "b-usage"
        ]
        assert [row.name for row in closed.rows if row.sensitive] == ["sens", "z-state"]

    def test_malformed_records_ignored(self):
        assembler = StreamAssembler(watermark=0)
        assembler.offer({"kind": "sample", "tick": "not-an-int"})
        assembler.offer({"kind": "mystery"})
        assert assembler.due() == []
        assert assembler.summary()["malformed"] == 2


def malformed_records(tick):
    """Every wrong-shaped record that used to raise out of ``offer``."""
    return {
        "not-a-mapping": ["sample", tick],
        "metrics-none": {**sample(tick), "metrics": None},
        "metrics-list": {**sample(tick), "metrics": [1.0]},
        "value-text": sample(tick, metrics={"cpu": "abc"}),
        "value-none": sample(tick, metrics={"cpu": None}),
        "second-value-text": sample(tick, metrics={"cpu": 1.0, "memory": "abc"}),
        "qos-value-text": qos(tick, value="x"),
        "sample-container-list": sample(tick, container=["c0"]),
        "state-container-list": state(tick, container=["c0"]),
        "sample-container-number": sample(tick, container=7),
        "state-flags-text": {**state(tick), "finished": "false", "sensitive": "false"},
        "state-sensitive-number": {**state(tick), "sensitive": 1},
        "header-containers-list": {**HEADER, "containers": ["c0", "sens"]},
        "header-capacity-metric-missing": {**HEADER, "capacity": {"cpu": 4.0}},
        "header-capacity-text": {**HEADER, "capacity": {**CAPACITY, "memory": "8G"}},
        "header-capacity-nan": {**HEADER, "capacity": {**CAPACITY, "cpu": math.nan}},
        "header-capacity-inf": {**HEADER, "capacity": {**CAPACITY, "cpu": math.inf}},
        "header-capacity-zero": {**HEADER, "capacity": {**CAPACITY, "disk_io": 0.0}},
        "header-capacity-list": {**HEADER, "capacity": [4.0, 8192.0]},
        "header-capacity-absent": {"kind": "header", "host": "host0"},
        # ``float`` reads ``true`` as 1.0 and numeric text as its number;
        # the wire's numbers are JSON numbers, so both are malformed.
        "tick-bool": sample(True),
        "value-bool": sample(tick, metrics={"cpu": True}),
        "value-numeric-text": sample(tick, metrics={"cpu": "2.5"}),
        "qos-value-bool": qos(tick, value=True),
        "qos-threshold-text": qos(tick, threshold="0.9"),
        "header-capacity-bool": {**HEADER, "capacity": {**CAPACITY, "cpu": True}},
    }


MALFORMED_SHAPES = sorted(malformed_records(0))


class TestMalformedRecords:
    """Untrusted input is rejected with a counted reason, never a crash."""

    @pytest.mark.parametrize("shape", MALFORMED_SHAPES)
    def test_offer_counts_and_drops_the_record_whole(self, shape):
        assembler = StreamAssembler(watermark=0)
        assembler.offer(malformed_records(0)[shape])
        assert assembler.summary()["malformed"] == 1
        assert assembler.header is None
        assert assembler.max_seen is None
        assert assembler.due() == []
        # The well-formed record for the same tick still lands, whole.
        assembler.offer(HEADER)
        assembler.offer(sample(0, metrics={"cpu": 2.0, "memory": 3.0}))
        (closed,) = assembler.due()
        assert rows(closed)["c0"].usage == (2.0, 3.0, 0.0, 0.0, 0.0)
        summary = assembler.summary()
        assert summary["malformed"] == 1
        assert summary["duplicated"] == summary["dropped"] == 0
        assert summary["ticks_closed_partial"] == 0

    @pytest.mark.parametrize("shape", MALFORMED_SHAPES)
    def test_started_service_pumps_past_it(self, shape):
        queue = QueueSource()
        service = ControllerService(queue, config=StayAwayConfig(telemetry=False))
        service.start()
        queue.push([malformed_records(0)[shape]])
        assert service.pump() == 0
        assert service.summary()["telemetry"]["stream"]["malformed"] == 1

    def test_bad_capacity_header_is_not_adopted_and_the_next_valid_one_is(self):
        """A well-formed header with an unusable capacity used to be
        adopted and crash the first period out of ``pump()``, on that
        tick and every later one."""
        config = StayAwayConfig(seed=3, telemetry=False)
        records, _, _ = record_reference(Scenario(ticks=40, seed=3), config)
        header, ticks = records[0], records[1:]
        assert header["kind"] == "header"
        half = len(ticks) // 2
        queue = QueueSource()
        service = ControllerService(queue, config=config)
        service.start()
        queue.push([{**header, "capacity": {"cpu": 4.0}}] + ticks[:half])
        assert service.pump() == 0  # ticks skipped: no header yet
        assert service.assembler.header is None
        assert service.summary()["telemetry"]["stream"]["malformed"] == 1
        queue.push([header] + ticks[half:])
        assert service.pump() > 0
        assert service.assembler.header == header

    def test_a_tick_far_ahead_is_rejected_not_synthesized_up_to(self):
        """Regression: one well-formed record at ``max_seen + 300 000``
        moved ``max_seen`` there, and the next ``due()`` closed every
        tick up to it as a gap tick."""
        assembler = StreamAssembler(watermark=2)
        for tick in range(5):
            assembler.offer(sample(tick))
        assembler.offer(sample(4 + 300_000))
        assert assembler.summary()["malformed"] == 1
        assert assembler.max_seen == 4
        assert [closed.tick for closed in assembler.due()] == [0, 1, 2]
        # The furthest jump allowed lands, gaps and all.
        assembler.offer(sample(4 + MAX_TICK_JUMP))
        assert assembler.max_seen == 4 + MAX_TICK_JUMP
        assert len(assembler.due()) == MAX_TICK_JUMP
        assert assembler.summary()["gap_ticks"] == MAX_TICK_JUMP - 2
        assert assembler.summary()["malformed"] == 1

    def test_clean_replay_decides_the_same_around_them(self):
        config = StayAwayConfig(seed=3, telemetry=False)
        records, reference, _ = record_reference(Scenario(ticks=160, seed=3), config)
        assert len(reference) > 5
        noisy, injected = [], 0
        for index, record in enumerate(records):
            if index % 97 == 0:
                # Ahead of the good record, for the good record's tick.
                bad = list(malformed_records(record.get("tick", 0)).values())
                noisy.extend(bad)
                injected += len(bad)
            noisy.append(record)
        service = replay_records(noisy, config=config)
        assert service.decision_sequence() == reference
        census = service.summary()["telemetry"]["stream"]
        assert census["malformed"] == injected
        assert all(
            census[key] == 0
            for key in ("dropped", "duplicated", "late", "imputed", "gap_ticks")
        )


class TestPassthroughAssembler:
    def test_duplicates_overwrite(self):
        assembler = PassthroughAssembler()
        assembler.offer(sample(0, metrics={"cpu": 1.0}))
        assembler.offer(sample(0, metrics={"cpu": 99.0}))
        assembler.offer(sample(1))
        assert cpu(assembler.due()[0]) == 99.0

    def test_missing_cells_zero_filled(self):
        assembler = PassthroughAssembler()
        assembler.offer(sample(0, metrics={"cpu": 3.0}))
        assembler.offer(sample(0, container="c1", metrics={"cpu": 5.0}))
        assembler.offer(sample(1, metrics={"cpu": 4.0}))
        assembler.offer(sample(2))
        closed = assembler.due()
        assert cpu(closed[1], "c1") == 0.0  # the poisonous fill

    def test_late_records_silently_lost(self):
        assembler = PassthroughAssembler()
        assembler.offer(sample(1))
        assembler.offer(sample(2))
        assembler.due()
        assembler.offer(sample(0, metrics={"cpu": 7.0}))
        # The late tick-0 record never surfaces again (and no counter
        # recorded the loss — passthrough has no census at all).
        assert all(c.tick != 0 for c in assembler.due(force=True))
        assert assembler.summary() == {}

    def test_skipped_ticks_never_close(self):
        assembler = PassthroughAssembler()
        assembler.offer(sample(0))
        assembler.offer(sample(5))
        assembler.offer(sample(6))
        closed = assembler.due()
        assert [c.tick for c in closed] == [0, 5]  # 1-4 never existed

    def test_clean_in_order_stream_matches_the_assembler(self):
        # Same ingest, different policies: with nothing lost, late or
        # duplicated the policies never engage, so both arms close the
        # same ticks with the same contents.
        records = [HEADER]
        for tick in range(6):
            records.append(sample(tick, metrics={"cpu": 1.0 + tick, "memory": 9.0}))
            records.append(sample(tick, container="sens", metrics={"cpu": 2.0}))
            records.append(state(tick, value="paused" if tick == 3 else "running"))
            records.append(state(tick, container="sens", finished=tick == 5))
            if tick % 2:
                records.append(qos(tick, value=0.5 + tick / 10))
        arms = (PassthroughAssembler(), StreamAssembler(watermark=0))
        for assembler in arms:
            for record in records:
                assembler.offer(record)
        passthrough, assembled = (arm.due(force=True) for arm in arms)
        assert [c.tick for c in passthrough] == list(range(6))
        assert passthrough == assembled
