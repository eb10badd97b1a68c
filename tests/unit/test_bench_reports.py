"""Every committed ``BENCH_*.json`` has a producer, every gate script a record."""

import ast
import json
import re
from pathlib import Path

import pytest

from benchmarks.helpers import enforce_gates, gate_main, write_report

REPO = Path(__file__).resolve().parents[2]

#: A gate script names its report in exactly one line of this shape; the
#: name is read from there, not from the script's file name
#: (``bench_robustness_chaos.py`` writes ``BENCH_fault_containment.json``).
DEFAULT_OUT_RE = re.compile(
    r'^DEFAULT_OUT = .* / "(BENCH_\w+\.json)"$', re.MULTILINE
)


def test_root_reports_match_their_producers():
    produced = [
        name
        for script in (REPO / "benchmarks").glob("bench_*.py")
        for name in DEFAULT_OUT_RE.findall(script.read_text(encoding="utf-8"))
    ]
    # CI smoke steps write git-ignored ``BENCH_*_ci.json`` beside the records.
    committed = [
        path.name
        for path in REPO.glob("BENCH_*.json")
        if not path.name.endswith("_ci.json")
    ]
    assert sorted(committed) == sorted(produced)


def _committed_reports():
    return sorted(
        path for path in REPO.glob("BENCH_*.json") if not path.name.endswith("_ci.json")
    )


@pytest.mark.parametrize("path", _committed_reports(), ids=lambda path: path.name)
def test_committed_report_passed_is_all_of_its_gates(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(report["gates"], dict) and report["gates"]
    assert report["passed"] == all(report["gates"].values())


def _assigns_passed(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and any(
            isinstance(key, ast.Constant) and key.value == "passed" for key in node.keys
        ):
            return True
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.slice, ast.Constant)
            and node.slice.value == "passed"
        ):
            return True
        if isinstance(node, ast.keyword) and node.arg == "passed":
            return True
    return False


def test_no_gate_script_writes_passed_itself():
    """``passed`` is ``all(gates)``, set in one place: ``write_report``."""
    assert _assigns_passed(ast.parse('report["passed"] = True'))
    writers = [
        script.name
        for script in sorted((REPO / "benchmarks").glob("bench_*.py"))
        if _assigns_passed(ast.parse(script.read_text(encoding="utf-8")))
    ]
    assert writers == []


def _fake_gate_run(out, level=0):
    return write_report({"bench": "fake", "level": level}, {"ok": True, "bad": False}, out)


def _fake_gate_show(report):
    print(f"fake report at level {report['level']}")


def test_gate_main_fails_naming_the_failing_gate(tmp_path, capsys):
    out = tmp_path / "BENCH_fake.json"
    status = gate_main(
        ["--level", "3", "--out", str(out)],
        _fake_gate_run, _fake_gate_show, tmp_path / "unused.json",
        level=dict(type=int, default=0),
    )
    printed = capsys.readouterr().out
    assert status == 1
    assert "fake report at level 3" in printed
    assert "FAIL: bad" in printed
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["passed"] is False
    assert written["gates"] == {"ok": True, "bad": False}
    assert "out" not in written


def test_enforce_gates_names_each_failing_gate(tmp_path):
    report = _fake_gate_run(tmp_path / "BENCH_fake.json")
    with pytest.raises(AssertionError, match="failing gates: bad$"):
        enforce_gates(report)
    passing = write_report({"bench": "fake"}, {"ok": True}, tmp_path / "BENCH_ok.json")
    enforce_gates(passing)
    assert passing["passed"] is True


def test_every_report_is_stamped_with_where_it_ran(tmp_path, monkeypatch):
    import platform
    import subprocess

    import numpy as np

    from benchmarks import helpers

    report = write_report({"bench": "fake"}, {"ok": True}, tmp_path / "BENCH_ok.json")
    written = json.loads(Path(report["out"]).read_text(encoding="utf-8"))
    stamp = written["environment"]
    assert set(stamp) == {"commit", "python", "numpy", "platform"}
    assert stamp["python"] == platform.python_version()
    assert stamp["numpy"] == np.__version__
    assert stamp["platform"] == platform.platform()
    if (helpers.REPO_ROOT / ".git").exists():
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=helpers.REPO_ROOT,
            capture_output=True, text=True,
        ).stdout.strip()
        assert stamp["commit"] == (head or "unknown")
    else:
        assert stamp["commit"] == "unknown"

    # A checkout outside git (an archive, a copied tree) says so.
    monkeypatch.setattr(helpers, "REPO_ROOT", tmp_path)
    assert helpers.environment_stamp()["commit"] == "unknown"


def test_every_tracer_patch_point_exists_in_src():
    """The frozen e2e benchmark wraps ``(owner, attribute)`` pairs by
    name (``vars(owner)[attribute]``); tier-1 never collects
    ``benchmarks/e2e``, so a rename in ``src/`` would otherwise kill
    every ``--trace 1`` pass with the suite green."""
    from benchmarks.e2e.tracer import patch_points

    missing = [
        f"{getattr(owner, '__name__', owner)}.{attribute} ({span})"
        for owner, attribute, span, _ in patch_points()
        if attribute not in vars(owner)
    ]
    assert missing == []


class _TickingClock:
    """A clock that moves 2**-10 s per read: every duration is dyadic."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 2.0 ** -10
        return self.now


def _controller_run(ticks, telemetry=None):
    from repro import Container, Host, SimulationEngine, StayAway, StayAwayConfig
    from repro.workloads import CpuBomb, VlcStreamingServer

    host = Host()
    vlc = VlcStreamingServer(seed=1)
    host.add_container(Container(name="vlc", app=vlc, sensitive=True))
    host.add_container(Container(name="bomb", app=CpuBomb(), start_tick=5))
    controller = StayAway(vlc, config=StayAwayConfig(seed=1), telemetry=telemetry)
    SimulationEngine(host, [controller]).run(ticks=ticks)
    return controller


def test_every_telemetry_name_the_e2e_bench_reads_exists():
    """The frozen e2e benchmark sums ``stage_summary()`` entries and
    reads three registry counters by name, and its ``registry_count``
    returns 0 for a missing one: a rename in ``src/`` would silently
    zero its ``failed`` count and its per-layer counts."""
    telemetry = _controller_run(40).telemetry
    stages = telemetry.stage_summary()
    for stage in ("controller.map", "controller.predict"):
        assert {"count", "sum"} <= set(stages[stage])
        assert stages[stage]["count"] > 0
    for name in (
        "prediction.samples_drawn", "controller.periods", "containment.firewall_catches",
    ):
        assert telemetry.registry.get(name) is not None, name


def test_period_rows_sum_to_the_stage_histograms(monkeypatch):
    """One row per period; per stage, the rows' durations add up to the
    histogram ``sum`` exactly, a period whose map stage raised (and
    the firewall contained) included."""
    from repro.core.mapping import MappingPipeline
    from repro.telemetry import Telemetry

    mapped = MappingPipeline.map_measurement

    def map_measurement(self, tick, *args, **kwargs):
        if tick == 20:
            raise RuntimeError("scripted map fault")
        return mapped(self, tick, *args, **kwargs)

    monkeypatch.setattr(MappingPipeline, "map_measurement", map_measurement)
    telemetry = Telemetry(clock=_TickingClock())
    controller = _controller_run(40, telemetry=telemetry)
    assert controller.summary()["telemetry"]["containment"]["firewall_catches"] == 1
    rows = list(telemetry.rows)
    assert [row["tick"] for row in rows] == list(range(40))
    assert "controller.map" in rows[20] and "controller.predict" not in rows[20]
    stages = telemetry.stage_summary()
    assert {"controller.period", "controller.map", "controller.predict"} <= set(stages)
    for stage, summary in stages.items():
        assert sum(row.get(stage, 0.0) for row in rows) == summary["sum"], stage
