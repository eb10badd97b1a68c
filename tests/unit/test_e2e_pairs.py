"""tools/e2e_pairs.py: the paired parent/change benchmark comparison."""

from __future__ import annotations

import json
import sys

import pytest

from tools import e2e_pairs

THROUGHPUT = {"name": "ticks_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LATENCY = {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.25}


class TestSummarize:
    def test_higher_is_better_counts_wins_and_ties_for_neither(self):
        row = e2e_pairs.summarize(
            THROUGHPUT, [100.0, 100.0, 100.0, 100.0], [120.0, 130.0, 100.0, 90.0]
        )
        assert row["wins"] == 2
        assert row["parent"] == (100.0, 100.0, 100.0)
        assert row["gain"] == pytest.approx(0.10)
        assert row["beyond_iqr"] and not row["regressed"]

    def test_lower_is_better_flips_the_direction(self):
        row = e2e_pairs.summarize(LATENCY, [400.0, 420.0, 380.0], [300.0, 310.0, 390.0])
        assert row["wins"] == 2
        assert row["gain"] == pytest.approx(0.225)

    def test_gap_inside_the_parent_spread_is_not_beyond_iqr(self):
        row = e2e_pairs.summarize(
            THROUGHPUT, [80.0, 100.0, 120.0, 140.0], [85.0, 105.0, 125.0, 145.0]
        )
        assert row["wins"] == 4 and not row["beyond_iqr"]

    def test_worse_than_the_bound_is_flagged(self):
        row = e2e_pairs.summarize(LATENCY, [100.0, 100.0], [130.0, 130.0])
        assert row["regressed"] and row["wins"] == 0


FAKE_BENCH = """
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
value = {value} + int(args["--seed"])
print("noise before the result line")
if args["--trace"] == "1":
    # A box that runs seed 7's pass 1.5x slower: raw self times grow with the gauge.
    slow = 1.5 if args["--seed"] == "7" else 1.0
    metrics = {{
        "sim.step_self_us": {{"value": 1e5 / {value} * slow, "unit": "us"}},
        "core.period_p99_us": {{"value": 2000.0, "unit": "us"}},
        "core.periods": {{"value": 240.0, "unit": "count"}},
        "monitoring.guard_rejects": {{"value": 0.0, "unit": "count"}},
        "bench.gauge_us": {{"value": 400.0 * slow, "unit": "us"}}}}
else:
    metrics = {{
        "ticks_per_s": {{"value": value, "unit": "1/s"}},
        "p50_us": {{"value": 1e6 / value, "unit": "us"}}}}
if "--result-file" in args:
    sims = [{{"decision_digest": "d" + args["--seed"], "violations": 7, "batch_work": {work}}}]
    with open(args["--result-file"], "w") as handle:
        json.dump({{"episode_sims": sims}}, handle)
print(json.dumps({{"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}}))
"""
LAYERS = [
    {"name": "sim.step_self_us", "unit": "us", "better": "lower"},
    {"name": "core.period_p99_us", "unit": "us", "better": "lower"},
    {"name": "core.periods", "unit": "count", "better": "higher"},
    {"name": "monitoring.guard_rejects", "unit": "count", "better": "lower"},
    {"name": "bench.gauge_us", "unit": "us", "better": "lower"},
]


def checkout(root, name, value, work=1.5):
    path = root / name
    path.mkdir()
    (path / "bench.py").write_text(FAKE_BENCH.format(value=value, work=work), encoding="utf-8")
    (path / "BENCHMARK.json").write_text(
        json.dumps(
            {
                "command": [sys.executable, "bench.py"],
                "run_seconds": 1,
                "workloads": [{"name": "steady"}, {"name": "cold"}],
                "end_to_end": [THROUGHPUT, LATENCY],
                "per_layer": LAYERS,
            }
        ),
        encoding="utf-8",
    )
    return path


class TestMain:
    def test_alternates_sides_and_reports_every_pass(self, tmp_path, capsys):
        parent = checkout(tmp_path, "parent", 1000)
        change = checkout(tmp_path, "change", 1300)
        status = e2e_pairs.main(
            ["--parent", str(parent), "--change", str(change),
             "--workload", "steady", "--pairs", "3", "--seeds", "3", "7"]
        )
        out = capsys.readouterr().out
        assert status == 0
        passes = [line.split(":")[0] for line in out.splitlines() if " pair " in line]
        assert passes == [
            "steady pair 0 seed 3 parent", "steady pair 0 seed 3 change",
            "steady pair 1 seed 7 change", "steady pair 1 seed 7 parent",
            "steady pair 2 seed 3 parent", "steady pair 2 seed 3 change",
        ]
        assert "failed operations parent 0/30, change 0/30" in out
        throughput = next(line for line in out.splitlines() if line.startswith("ticks_per_s"))
        assert "+29.9%" in throughput and "3/3" in throughput
        assert "gap > parent IQR" in throughput

    def test_unknown_workload_and_mismatched_contracts_are_refused(self, tmp_path):
        parent = checkout(tmp_path, "parent", 1000)
        change = checkout(tmp_path, "change", 1000)
        with pytest.raises(SystemExit, match="unknown workload"):
            e2e_pairs.main(
                ["--parent", str(parent), "--change", str(change), "--workload", "nope"]
            )
        (change / "BENCHMARK.json").write_text('{"command": []}', encoding="utf-8")
        with pytest.raises(SystemExit, match="different BENCHMARK.json"):
            e2e_pairs.main(["--parent", str(parent), "--change", str(change)])


class TestLayers:
    def test_traced_pairs_rescale_raw_self_times_by_their_own_gauge(self, tmp_path, capsys):
        parent = checkout(tmp_path, "parent", 1000)
        change = checkout(tmp_path, "change", 2000)
        status = e2e_pairs.main(
            ["--parent", str(parent), "--change", str(change), "--workload", "steady",
             "--pairs", "4", "--seeds", "3", "7", "--layer", "sim.step_self_us",
             "--layer", "core.period_p99_us", "--layer", "core.periods",
             "--layer", "monitoring.guard_rejects", "--layer", "bench.gauge_us"]
        )
        rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines() if line}
        assert status == 0
        # 100 / 150 us raw at gauge 400 / 600 is 100 us at the reference speed.
        assert "100 / 100 / 100" in rows["sim.step_self_us"]
        assert "50 / 50 / 50" in rows["sim.step_self_us"]
        assert "+50.0%" in rows["sim.step_self_us"] and "4/4" in rows["sim.step_self_us"]
        # Percentiles arrive rescaled and the gauge is the gauge: both untouched.
        assert "2000 / 2000 / 2000" in rows["core.period_p99_us"]
        assert "400 / 500 / 600" in rows["bench.gauge_us"]
        # Counts: equal on both sides, a zero parent median included.
        assert "+0.0%" in rows["core.periods"] and "0/4" in rows["core.periods"]
        assert "+0.0%" in rows["monitoring.guard_rejects"]
        assert "ticks_per_s" not in rows

    def test_unknown_layer_is_refused(self, tmp_path):
        parent = checkout(tmp_path, "parent", 1000)
        with pytest.raises(SystemExit, match="unknown per_layer"):
            e2e_pairs.main(
                ["--parent", str(parent), "--change", str(parent), "--layer", "nope_us"]
            )


class TestSims:
    def run(self, tmp_path, work):
        parent = checkout(tmp_path, "parent", 1000)
        change = checkout(tmp_path, "change", 1300, work=work)
        return e2e_pairs.main(
            ["--parent", str(parent), "--change", str(change), "--sims", "--seeds", "3", "11"]
        )

    def test_equal_episodes_exit_zero(self, tmp_path, capsys):
        assert self.run(tmp_path, work=1.5) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"{workload} seed {seed}: episode_sims equal"
            for workload in ("steady", "cold") for seed in (3, 11)
        ]

    def test_first_differing_key_is_printed_and_fails(self, tmp_path, capsys):
        assert self.run(tmp_path, work=1.25) == 1
        assert (
            "steady seed 3: DIFFERS at episode 0 batch_work: parent 1.5, change 1.25"
            in capsys.readouterr().out
        )

    def test_first_difference(self):
        same = [{"decision_digest": "a", "core.periods": 3}]
        assert e2e_pairs.first_difference(same, [dict(same[0])]) is None
        assert "1 episodes against 2" in e2e_pairs.first_difference(same, same * 2)
        extra = [dict(same[0], violations=1)]
        assert "episode 0 violations: parent None, change 1" in e2e_pairs.first_difference(
            same, extra
        )
