"""Every committed ``BENCH_*.json`` has a producer, every gate script a record."""

import re
from pathlib import Path

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
