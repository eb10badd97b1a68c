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
print(json.dumps({{"correct": True, "attempted": 10, "failed": 0, "metrics": {{
    "ticks_per_s": {{"value": value, "unit": "1/s"}},
    "p50_us": {{"value": 1e6 / value, "unit": "us"}}}}}}))
"""


def checkout(root, name, value):
    path = root / name
    path.mkdir()
    (path / "bench.py").write_text(FAKE_BENCH.format(value=value), encoding="utf-8")
    (path / "BENCHMARK.json").write_text(
        json.dumps(
            {
                "command": [sys.executable, "bench.py"],
                "run_seconds": 1,
                "workloads": [{"name": "steady"}, {"name": "cold"}],
                "end_to_end": [THROUGHPUT, LATENCY],
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
