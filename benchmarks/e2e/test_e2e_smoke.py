"""Smoke test of the benchmark itself, at 2 % scale.

Run with ``python -m pytest benchmarks/e2e -q`` (the tier-1
``testpaths`` does not collect this directory).
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
for entry in (str(REPO / "src"), str(REPO)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import metrics  # noqa: E402
from benchmarks.e2e.gauge import Pace  # noqa: E402
from benchmarks.e2e.runner import contract_line, run_workload  # noqa: E402
from benchmarks.e2e.tracer import ROOT, Tracer, installed, patch_points  # noqa: E402

SCALE = 0.02
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
ISSUE_END_TO_END = (
    "host_ticks_per_s", "period_p50_us", "period_p99_us", "round_p50_ms",
    "round_p95_ms", "sample_to_ack_p50_ticks", "sample_to_ack_p99_ticks",
    "violation_ratio", "batch_work", "peak_rss_mb", "setup_s",
)


@pytest.fixture(scope="module")
def passes():
    """One untraced and one traced single-episode pass per workload."""
    return {
        name: (
            run_workload(name, seed=3, seconds=0, traced=False, scale=SCALE),
            run_workload(name, seed=3, seconds=0, traced=True, scale=SCALE),
        )
        for name in metrics.WORKLOADS
    }


def test_benchmark_json_matches_the_code():
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [(name, *rest) for name, rest in metrics.GATED.items()]
    assert spec["per_layer"] == metrics.per_layer_spec()
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_every_workload_runs_and_reports_every_metric(passes):
    for name, (plain, traced) in passes.items():
        assert plain["correct"], plain["errors"]
        assert traced["correct"], traced["errors"]
        assert tuple(plain["end_to_end"]) == ISSUE_END_TO_END
        for metric, (_, _, _, defined_on) in metrics.WORKLOAD_E2E.items():
            assert (plain["end_to_end"][metric] is not None) == (name in defined_on)
        for result, expected in (
            (plain, list(metrics.GATED)),
            (traced, [m["name"] for m in metrics.per_layer_spec()]),
        ):
            line = contract_line(result)
            assert list(line["metrics"]) == expected
            assert line["attempted"] >= 1 and line["failed"] == 0
            for metric, reading in line["metrics"].items():
                assert NAME.match(metric)
                assert math.isfinite(reading["value"]), metric
        for share in metrics.SHARES:
            assert math.isfinite(traced["per_layer"][share])
        assert plain["end_to_end"]["setup_s"] > 0
        assert plain["end_to_end"]["host_ticks_per_s"] > 0


def test_tracer_does_not_perturb_simulated_behaviour(passes):
    for name, (plain, traced) in passes.items():
        assert plain["episode_sims"] == traced["episode_sims"], name


def test_layers_only_cost_where_they_run(passes):
    for name, (_, traced) in passes.items():
        layers = traced["per_layer"]
        fleet = sum(v for k, v in layers.items() if k.startswith("fleet.") and k.endswith("_us"))
        service = sum(v for k, v in layers.items() if k.startswith("service.") and k.endswith("_us"))
        assert (fleet > 0) == (name == "fleet_chaos")
        assert (service > 0) == name.startswith("stream_")


def test_span_tree_is_well_formed(passes):
    for name, (_, traced) in passes.items():
        rows = [
            json.loads(line)
            for line in (REPO / traced["trace"]["file"]).read_text().splitlines()
        ]
        assert rows and len(rows) == traced["trace"]["spans_in_file"]
        self_us = [row["end_us"] - row["start_us"] for row in rows]
        roots = 0.0
        for row in rows:
            assert row["workload"] == name
            assert row["end_us"] >= row["start_us"]
            if row["parent"] is None:
                assert row["name"] == ROOT
                roots += row["end_us"] - row["start_us"]
                continue
            above = rows[row["parent"]]
            assert row["parent"] < row["id"]
            assert above["start_us"] <= row["start_us"] and row["end_us"] <= above["end_us"]
            assert row["tick"] == above["tick"]
            self_us[row["parent"]] -= row["end_us"] - row["start_us"]
        assert min(self_us) >= -0.01  # rounding of the written timestamps
        assert sum(self_us) == pytest.approx(roots, rel=0.05)
        whole = traced["trace"]
        assert whole["layer_self_sum_s"] == pytest.approx(whole["root_wall_s"], rel=0.05)


def test_pace_rescales_every_sample_by_the_chunk_it_was_taken_in():
    samples = []
    pace = Pace(2, samples)
    for value in (1.0, 2.0, 3.0):
        samples.append(value)
        pace.tick()
    pace.close()
    first, second = pace.factors()
    assert pace.rescaled(0) == [1.0 * first, 2.0 * first, 3.0 * second]
    walls = [wall for wall, _ in pace.chunks]
    assert pace.wall_s() == pytest.approx(sum(walls))
    assert pace.paced_s() == pytest.approx(walls[0] * first + walls[1] * second)


def test_reports_carry_the_raw_wall_clock_beside_every_rescaled_time(passes):
    for plain, _ in passes.values():
        for metric, raw in plain["raw"].items():
            assert (raw is None) == (plain["end_to_end"][metric] is None)
        assert plain["per_layer"][metrics.GAUGE] > 0


def test_patches_are_restored():
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in patch_points()]
    tracer = Tracer("restore")
    with installed(tracer) as originals:
        assert all(vars(owner)[attr] is not original for owner, attr, original in originals)
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_tracer_agrees_with_the_programs_own_stage_timers():
    traced = run_workload("host_steady", seed=3, seconds=0, traced=True, scale=0.25)
    versus = traced["trace"]["trace_vs_telemetry_pct"]
    assert set(versus) == {"controller.map", "controller.predict"}
    for stage, percent in versus.items():
        assert abs(percent) < 15.0, (stage, percent)
