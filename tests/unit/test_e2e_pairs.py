"""tools/e2e_pairs.py: the paired parent/change benchmark comparison."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

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

    def test_claim_rule_needs_nine_of_ten_wins(self):
        parent = [100.0 + i for i in range(10)]
        nine = [80.0] * 9 + [200.0]
        row = e2e_pairs.summarize(LATENCY, parent, nine)
        assert row["wins"] == 9 and row["claim_met"]
        eight = [80.0] * 8 + [200.0] * 2
        row = e2e_pairs.summarize(LATENCY, parent, eight)
        assert row["wins"] == 8 and row["beyond_iqr"] and not row["claim_met"]

    def test_claim_rule_needs_the_gap_beyond_the_iqr_in_the_better_direction(self):
        parent = [100.0 + i for i in range(10)]
        # Worse by more than the parent's IQR: beyond it, but no claim.
        row = e2e_pairs.summarize(LATENCY, parent, [150.0] * 10)
        assert row["beyond_iqr"] and row["wins"] == 0 and not row["claim_met"]
        # Ten wins inside the parent's spread are no claim either.
        row = e2e_pairs.summarize(LATENCY, parent, [p - 0.5 for p in parent])
        assert row["wins"] == 10 and not row["beyond_iqr"] and not row["claim_met"]

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
    sims = [{{"decision_digest": "d" + args["--seed"], "violations": {violations},
             "qos_reports": 10, "batch_work": {work}}}]
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


def checkout(root, name, value, work=1.5, violations=7):
    path = root / name
    path.mkdir()
    (path / "bench.py").write_text(
        FAKE_BENCH.format(value=value, work=work, violations=violations), encoding="utf-8"
    )
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
        assert "gap > parent IQR; claim rule met" in throughput

    def test_both_checkouts_are_byte_compiled_before_the_passes(self, tmp_path, capsys):
        sides = {}
        for name, value in (("parent", 1000), ("change", 1100)):
            sides[name] = checkout(tmp_path, name, value)
            (sides[name] / "src" / "pkg").mkdir(parents=True)
            (sides[name] / "src" / "pkg" / "__init__.py").write_text("X = 1\n", encoding="utf-8")
            (sides[name] / "benchmarks").mkdir()
            (sides[name] / "benchmarks" / "probe.py").write_text("Y = 2\n", encoding="utf-8")
        status = e2e_pairs.main(
            ["--parent", str(sides["parent"]), "--change", str(sides["change"]),
             "--workload", "steady", "--pairs", "1", "--seeds", "3"]
        )
        out = capsys.readouterr().out
        assert status == 0
        for name, path in sides.items():
            assert list((path / "src" / "pkg" / "__pycache__").glob("__init__.*.pyc"))
            assert list((path / "benchmarks" / "__pycache__").glob("probe.*.pyc"))
            assert f"{name}: byte-compiled src benchmarks in {path}" in out
        # The compile lines come before the first pass.
        lines = out.splitlines()
        first_pass = next(i for i, line in enumerate(lines) if " pair " in line)
        assert max(i for i, line in enumerate(lines) if "byte-compiled" in line) < first_pass

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


class TestParentRef:
    @staticmethod
    def two_commit_repo(tmp_path):
        """A repository whose first commit benchmarks at 1000, its second at 1300."""
        repo = tmp_path / "repo"
        repo.mkdir()

        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                cwd=repo, check=True, capture_output=True, text=True,
            ).stdout.strip()

        git("init", "-q")
        for value in (1000, 1300):
            staged = checkout(tmp_path, f"staged{value}", value)
            for name in ("bench.py", "BENCHMARK.json"):
                (repo / name).write_text((staged / name).read_text("utf-8"), encoding="utf-8")
            git("add", "-A")
            git("commit", "-q", "-m", f"value {value}")
        return repo, git("rev-parse", "HEAD~1")

    def test_the_exported_commit_is_the_parent_and_is_removed(self, tmp_path, capsys):
        repo, first = self.two_commit_repo(tmp_path)
        status = e2e_pairs.main(
            ["--parent-ref", "HEAD~1", "--change", str(repo),
             "--workload", "steady", "--pairs", "2", "--seeds", "3"]
        )
        out = capsys.readouterr().out
        assert status == 0
        exported = re.search(rf"parent: git archive {first} \(HEAD~1\) from \S+ into (\S+)", out)
        assert exported is not None
        assert "parent: byte-compiled" not in out  # the fake checkout has no sources
        throughput = next(line for line in out.splitlines() if line.startswith("ticks_per_s"))
        assert "+29.9%" in throughput and "2/2" in throughput
        assert not Path(exported.group(1)).exists()

    def test_an_unknown_revision_is_refused_and_leaves_nothing(self, tmp_path, monkeypatch):
        repo, _ = self.two_commit_repo(tmp_path)
        made = []
        real = e2e_pairs.tempfile.TemporaryDirectory

        def recorded(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(e2e_pairs.tempfile, "TemporaryDirectory", recorded)
        with pytest.raises(SystemExit, match="rev-parse"):
            e2e_pairs.main(["--parent-ref", "no-such-rev", "--change", str(repo)])
        assert made and not Path(made[0].name).exists()

    def test_parent_and_parent_ref_exclude_each_other(self, tmp_path, capsys):
        parent = checkout(tmp_path, "parent", 1000)
        with pytest.raises(SystemExit):
            e2e_pairs.main(
                ["--parent", str(parent), "--parent-ref", "HEAD", "--change", str(parent)]
            )
        assert "not allowed with argument" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            e2e_pairs.main(["--change", str(parent)])


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
    def run(self, tmp_path, work, violations=7):
        parent = checkout(tmp_path, "parent", 1000)
        change = checkout(tmp_path, "change", 1300, work=work, violations=violations)
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

    def test_every_differing_key_is_printed_and_fails(self, tmp_path, capsys):
        assert self.run(tmp_path, work=1.25, violations=5) == 1
        table = [
            "  violation_ratio: 0.7 -> 0.5",
            "  violations: 7 -> 5",
            "  batch_work: 1.5 -> 1.25",
        ]
        assert capsys.readouterr().out.splitlines() == [
            line
            for workload in ("steady", "cold")
            for seed in (3, 11)
            for line in [f"{workload} seed {seed}: 3 keys differ", *table]
        ]

    def test_differences_lists_every_key(self):
        same = [{"decision_digest": "a" * 64, "core.periods": 3}]
        assert e2e_pairs.differences(same, [dict(same[0])]) == []
        assert e2e_pairs.differences(same, same * 2) == ["episodes: 1 -> 2"]
        changed = [{"decision_digest": "b" * 64, "core.periods": 4, "violations": 1,
                    "qos_reports": 4}]
        assert e2e_pairs.differences(same, changed) == [
            "decision_digest: aaaaaaaaaaaa -> bbbbbbbbbbbb",
            "core.periods: 3 -> 4",
            "violation_ratio: None -> 0.25",
            "violations: None -> 1",
            "qos_reports: None -> 4",
        ]
        assert e2e_pairs.differences(same * 2, [same[0], changed[0]])[0] == (
            "episode 1 decision_digest: aaaaaaaaaaaa -> bbbbbbbbbbbb"
        )
        # Equal to six digits, unequal in the last bits: shown in full.
        assert e2e_pairs.differences([{"batch_work": 0.1 + 0.2}], [{"batch_work": 0.3}]) == [
            "batch_work: 0.30000000000000004 -> 0.3"
        ]
