"""Unit tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "stayaway"
        assert args.sensitive == "vlc-streaming"
        assert args.ticks == 1200

    def test_policy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "nonsense"])


class TestCommands:
    def test_list_workloads(self):
        code, output = run_cli(["list-workloads"])
        assert code == 0
        assert "vlc-streaming" in output
        assert "cpubomb" in output
        assert "sensitive" in output and "batch" in output

    def test_run_stayaway(self):
        code, output = run_cli([
            "run", "--ticks", "120", "--batch", "cpubomb",
            "--policy", "stayaway", "--seed", "1",
        ])
        assert code == 0
        assert "violations" in output
        assert "learned beta" in output

    def test_run_unmanaged(self):
        code, output = run_cli([
            "run", "--ticks", "80", "--policy", "unmanaged",
        ])
        assert code == 0
        assert "learned beta" not in output

    def test_compare(self):
        code, output = run_cli([
            "compare", "--ticks", "120", "--batch", "cpubomb", "--seed", "2",
        ])
        assert code == 0
        assert "isolated" in output
        assert "unmanaged" in output
        assert "stayaway" in output
        assert "gained utilization" in output

    def test_multiple_batches(self):
        code, output = run_cli([
            "run", "--ticks", "80",
            "--batch", "soplex", "--batch", "twitter-analysis",
        ])
        assert code == 0

    def test_run_show_telemetry(self):
        code, output = run_cli([
            "run", "--ticks", "100", "--batch", "cpubomb",
            "--show-telemetry",
        ])
        assert code == 0
        assert "controller.map" in output
        assert "span tree" in output

    def test_run_telemetry_exports(self, tmp_path):
        import json

        snap = tmp_path / "telemetry.json"
        trace = tmp_path / "trace.jsonl"
        prom = tmp_path / "metrics.prom"
        code, output = run_cli([
            "run", "--ticks", "100", "--batch", "cpubomb",
            "--telemetry-out", str(snap),
            "--trace-out", str(trace),
            "--prometheus-out", str(prom),
        ])
        assert code == 0
        payload = json.loads(snap.read_text())
        assert payload["policy"] == "stayaway"
        assert payload["metrics"]["counters"]["controller.periods"] == 100
        assert all(json.loads(line) for line in trace.read_text().splitlines())
        assert "controller_periods_total 100" in prom.read_text()

    def test_run_no_telemetry(self):
        code, output = run_cli([
            "run", "--ticks", "100", "--batch", "cpubomb",
            "--no-telemetry", "--show-telemetry",
        ])
        assert code == 0
        # no stages recorded, so no stage table in the output
        assert "controller.map" not in output
        assert "learned beta" in output  # counters still summarized

    def test_template(self, tmp_path):
        out_path = tmp_path / "map.json"
        code, output = run_cli([
            "template", "--ticks", "150", "--batch", "cpubomb",
            "--out", str(out_path),
        ])
        assert code == 0
        assert out_path.exists()
        from repro.core.template import MapTemplate

        template = MapTemplate.load(out_path)
        assert template.representatives.shape[0] >= 1

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.hosts == 12
        assert args.ticks == 240
        assert args.host_crash == pytest.approx(0.002)

    def test_fleet_drill(self):
        code, output = run_cli([
            "fleet", "--hosts", "8", "--ticks", "120",
            "--seed", "2", "--host-crash", "0.005", "--blackout", "0.0",
        ])
        assert code == 0
        for arm in ("coordinator", "per-host", "none"):
            assert arm in output
        assert "improvement over per-host" in output
        assert "crash" not in output.split("improvement")[0].replace(
            "host crashes", ""
        )  # no coordinator crash in the arm table

    def test_serve_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--replay", "a.jsonl", "--scrape", "b.prom"]
            )

    def test_record_stream_then_serve_replay(self, tmp_path):
        path = tmp_path / "run.jsonl"
        code, output = run_cli([
            "run", "--ticks", "120", "--seed", "1",
            "--record-stream", str(path),
        ])
        assert code == 0
        assert path.exists()
        assert "wire records" in output
        code, output = run_cli([
            "serve", "--replay", str(path), "--seed", "1",
        ])
        assert code == 0
        assert "ticks processed" in output
        assert "120" in output
        assert "dead-lettered" in output
        assert "stopped" in output

    def test_serve_watermark_override(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_cli([
            "run", "--ticks", "60", "--seed", "1",
            "--record-stream", str(path),
        ])
        code, output = run_cli([
            "serve", "--replay", str(path), "--watermark", "0",
        ])
        assert code == 0
        assert "ticks processed" in output
