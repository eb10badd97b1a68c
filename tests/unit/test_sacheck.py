"""Unit tests for tools/sacheck: every rule, suppression, baseline, CLI.

Each rule is exercised on minimal positive/negative snippets compiled
through ``ast.parse`` (via :func:`tools.sacheck.scan_source`), with the
``rel_path`` chosen to land the snippet in the right architecture layer.
The integration test at the bottom pins the real repo scan to the
committed baseline — the same contract the CI job enforces.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from tools.sacheck import (
    Baseline,
    baseline_from_findings,
    rule_catalog,
    scan_source,
)
from tools.sacheck import cli
from tools.sacheck.cli import DEFAULT_BASELINE, REPO_ROOT, main
from tools.sacheck.engine import module_name, parse_suppressions
from tools.sacheck.layering import LayeringRule, build_import_graph, layer_edges
from tools.sacheck.rules import (
    AdHocTelemetryRule,
    BroadExceptRule,
    ConfigValidationRule,
    FloatEqualityRule,
    GlobalRngRule,
    MutableDefaultRule,
    WallClockRule,
)

CORE = "src/repro/core/x.py"
MDS = "src/repro/mds/x.py"
SIM = "src/repro/sim/x.py"
TELEMETRY = "src/repro/telemetry/x.py"
MONITORING = "src/repro/monitoring/x.py"


def check(source: str, rule, rel_path: str = CORE):
    findings, _ = scan_source(textwrap.dedent(source), [rule], rel_path=rel_path)
    return findings


# -- SA101 wall clock ------------------------------------------------------


def test_sa101_flags_wall_clock_calls_in_deterministic_layers():
    src = """
    import time
    def now():
        return time.time()
    """
    findings = check(src, WallClockRule())
    assert [f.rule for f in findings] == ["SA101"]
    assert "time.time" in findings[0].message


def test_sa101_catches_from_import_and_datetime():
    src = """
    from time import monotonic
    from datetime import datetime
    def f():
        return monotonic(), datetime.now()
    """
    findings = check(src, WallClockRule(), rel_path=TELEMETRY)
    assert sorted(f.message.split("(")[0] for f in findings) == [
        "wall-clock call datetime.datetime.now",
        "wall-clock call time.monotonic",
    ]


def test_sa101_allows_clock_reference_as_injectable_default():
    # Storing the function (not calling it) is the sanctioned
    # injected-clock default pattern used across repro.telemetry.
    src = """
    import time
    class Timer:
        def __init__(self, clock=None):
            self.clock = clock if clock is not None else time.perf_counter
    """
    assert check(src, WallClockRule(), rel_path=TELEMETRY) == []


def test_sa101_does_not_apply_outside_deterministic_layers():
    src = "import time\nx = time.time()\n"
    assert check(src, WallClockRule(), rel_path=SIM) == []


# -- SA102 global RNG ------------------------------------------------------


def test_sa102_flags_global_numpy_rng_with_alias():
    src = """
    import numpy as np
    def f():
        return np.random.rand(3)
    """
    findings = check(src, GlobalRngRule(), rel_path=SIM)
    assert [f.rule for f in findings] == ["SA102"]
    assert "numpy.random.rand" in findings[0].message


def test_sa102_flags_stdlib_random():
    src = "import random\nx = random.randint(0, 5)\n"
    findings = check(src, GlobalRngRule())
    assert len(findings) == 1


def test_sa102_allows_seeded_generators():
    src = """
    import numpy as np
    from numpy.random import default_rng
    import random
    rng = np.random.default_rng(42)
    rng2 = default_rng(7)
    local = random.Random(3)
    x = rng.normal()
    """
    assert check(src, GlobalRngRule()) == []


# -- SA103 layering --------------------------------------------------------


def test_sa103_flags_core_importing_sim():
    src = "from repro.sim.host import Host\n"
    findings = check(src, LayeringRule())
    assert [f.rule for f in findings] == ["SA103"]


def test_sa103_allows_type_checking_imports():
    src = """
    from typing import TYPE_CHECKING
    if TYPE_CHECKING:
        from repro.sim.host import Host
        from repro.workloads.base import Application
    """
    assert check(src, LayeringRule()) == []


def test_sa103_flags_telemetry_importing_core_and_monitoring_importing_sim():
    assert check("from repro.core.config import StayAwayConfig\n",
                 LayeringRule(), rel_path=TELEMETRY)
    assert check("import repro.sim.host\n", LayeringRule(), rel_path=MONITORING)


def test_sa103_resolves_relative_imports():
    src = "from ..sim.host import Host\n"
    findings = check(src, LayeringRule(), rel_path=CORE)
    assert findings and "repro.sim.host" in findings[0].message


def test_sa103_allows_sanctioned_directions():
    assert check("from repro.mds.smacof import smacof\n", LayeringRule()) == []
    assert check("from repro.core.config import StayAwayConfig\n",
                 LayeringRule(), rel_path="src/repro/experiments/x.py") == []


def test_sa103_nothing_below_fleet_may_import_it():
    for rel_path in (CORE, SIM, MONITORING, TELEMETRY,
                     "src/repro/workloads/x.py", "src/repro/baselines/x.py"):
        findings = check("from repro.fleet import FleetCoordinator\n",
                         LayeringRule(), rel_path=rel_path)
        assert [f.rule for f in findings] == ["SA103"], rel_path


def test_sa103_fleet_imports_infrastructure_not_experiments():
    fleet = "src/repro/fleet/coordinator.py"
    allowed = """
    from repro.core.controller import StayAway
    from repro.sim.cluster import Cluster
    from repro.monitoring.qos import QosTracker
    """
    assert check(allowed, LayeringRule(), rel_path=fleet) == []
    for src in ("from repro.workloads.registry import make_workload\n",
                "from repro.experiments.chaos import FleetMix\n",
                "from repro.analysis.reports import ascii_table\n",
                "from repro.service import ControllerService\n",
                "def f():\n    from repro.service.recording import qos_record\n"):
        findings = check(src, LayeringRule(), rel_path=fleet)
        assert [f.rule for f in findings] == ["SA103"], src


# -- SA104 mutable defaults ------------------------------------------------


def test_sa104_flags_literal_and_call_defaults():
    src = """
    def f(a, b=[], *, c={}):
        return a
    def g(x=list()):
        return x
    """
    findings = check(src, MutableDefaultRule(), rel_path=SIM)
    assert len(findings) == 3


def test_sa104_allows_immutable_defaults():
    src = """
    def f(a=None, b=(), c=0, d="x", e=frozenset()):
        return a
    """
    assert check(src, MutableDefaultRule()) == []


# -- SA105 float equality --------------------------------------------------


def test_sa105_flags_float_literal_equality_in_numerical_layers():
    findings = check("ok = x == 0.5\n", FloatEqualityRule(), rel_path=MDS)
    assert [f.rule for f in findings] == ["SA105"]
    assert check("bad = 1.0 != y\n", FloatEqualityRule(), rel_path=MDS)


def test_sa105_allows_int_ordered_and_non_numerical_layers():
    assert check("ok = x == 0\n", FloatEqualityRule(), rel_path=MDS) == []
    assert check("ok = x <= 0.5\n", FloatEqualityRule(), rel_path=MDS) == []
    assert check("ok = x == 0.5\n", FloatEqualityRule(),
                 rel_path="src/repro/workloads/x.py") == []


# -- SA106 telemetry facade ------------------------------------------------


def test_sa106_flags_clock_reads_and_histograms_in_core():
    src = """
    import time
    from repro.telemetry.registry import Histogram
    hist = Histogram("map_seconds")
    started = time.perf_counter()
    """
    findings = check(src, AdHocTelemetryRule())
    # the histogram construction and the clock read are flagged
    assert [f.rule for f in findings] == ["SA106", "SA106"]


def test_sa106_allows_facade_and_other_layers():
    src = """
    from repro.telemetry import Telemetry
    tel = Telemetry(enabled=True)
    with tel.stage("controller.period", tick=0):
        pass
    """
    assert check(src, AdHocTelemetryRule()) == []
    # telemetry itself reads its clock and builds its histograms
    own = """
    import time
    from repro.telemetry.registry import Histogram
    hist = Histogram("map_seconds")
    started = time.perf_counter()
    """
    assert check(own, AdHocTelemetryRule(), rel_path=TELEMETRY) == []


# -- SA107 config audit ----------------------------------------------------


def test_sa107_requires_validator_or_docstring_entry():
    src = '''
    class StayAwayConfig:
        """Config.

        Parameters
        ----------
        documented:
            Has a docstring entry.
        a / b:
            Shared entry for two fields.
        """

        documented: int = 1
        a: float = 0.5
        b: float = 0.5
        validated: int = 3
        orphan: int = 9

        def __post_init__(self):
            if self.validated < 1:
                raise ValueError("validated must be >= 1")
    '''
    findings = check(src, ConfigValidationRule(),
                     rel_path="src/repro/core/config.py")
    assert [f.message.split("'")[1] for f in findings] == ["orphan"]


def test_sa107_only_targets_the_config_module():
    src = "class StayAwayConfig:\n    orphan: int = 1\n"
    assert check(src, ConfigValidationRule(), rel_path=CORE) == []


# -- SA108 broad except ----------------------------------------------------


def test_sa108_flags_broad_and_bare_excepts():
    src = """
    try:
        risky()
    except Exception:
        pass
    try:
        risky()
    except:
        pass
    try:
        risky()
    except (ValueError, BaseException) as exc:
        raise exc
    """
    findings = check(src, BroadExceptRule())
    assert [f.rule for f in findings] == ["SA108"] * 3
    assert "except Exception" in findings[0].message
    assert "bare except" in findings[1].message
    assert "except BaseException" in findings[2].message


def test_sa108_allows_narrow_handlers_and_justified_suppressions():
    src = """
    try:
        risky()
    except (ValueError, OSError):
        pass
    try:
        risky()
    except Exception:  # sacheck: disable=SA108 -- stage firewall boundary
        pass
    """
    findings, ctx = scan_source(
        textwrap.dedent(src), [BroadExceptRule()], rel_path=CORE
    )
    assert findings == []
    assert [f.rule for f in ctx.suppressed] == ["SA108"]


def test_sa108_only_targets_repro_modules():
    src = "try:\n    risky()\nexcept Exception:\n    pass\n"
    assert check(src, BroadExceptRule(), rel_path="tools/sacheck/cli.py") == []
    assert check(src, BroadExceptRule(), rel_path="tests/unit/test_x.py") == []


# -- SA205 orphan modules --------------------------------------------------

ORPHAN_TREE = {
    "src/repro/__init__.py": "",
    "src/repro/__main__.py": "from repro.cli import main\n",
    "src/repro/cli.py": "from repro.analysis import used\n",
    "src/repro/analysis/__init__.py": (
        "from repro.analysis.extra import helper\n"
        "from repro.analysis.used import used\n"
    ),
    "src/repro/analysis/extra.py": (
        '"""A helper written for a caller that never came."""\n'
        "def helper():\n    return 1\n"
    ),
    "src/repro/analysis/used.py": "def used():\n    return 2\n",
    "tests/test_extra.py": "from repro.analysis.extra import helper\n",
}


#: The tree's functions are imported, never called: SA206's findings,
#: which test_sacheck_v2.py covers on a tree of its own.
ONLY_SA205 = ("--rules", "SA205")


@pytest.fixture
def orphan_repo(tmp_path, monkeypatch):
    """``repro.analysis.extra``: imported by its package and a test only."""
    for rel, source in ORPHAN_TREE.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    monkeypatch.setattr(cli, "REPO_ROOT", tmp_path)
    return tmp_path


def test_sa205_fires_on_module_only_its_package_and_a_test_import(orphan_repo, capsys):
    assert main([*ONLY_SA205, "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "src/repro/analysis/extra.py:1:0: SA205" in out
    assert "repro.analysis, tests.test_extra" in out
    # used.py is reached through the package re-export in cli.py, cli.py
    # from the entry point, and an entry point needs no importer.
    assert "1 new finding(s)" in out


def test_sa205_counts_a_benchmark_as_a_caller(orphan_repo, capsys):
    bench = orphan_repo / "benchmarks" / "bench_extra.py"
    bench.parent.mkdir()
    bench.write_text("from repro.analysis import helper\n", encoding="utf-8")
    assert main([*ONLY_SA205, "--no-baseline"]) == 0
    out = capsys.readouterr().out
    assert "0 new finding(s)" in out
    assert f"{len(ORPHAN_TREE)} file(s)" in out  # benchmarks/ is read, not scanned


def test_sa205_justified_entry_passes_until_it_goes_stale(orphan_repo, capsys):
    assert main([*ONLY_SA205, "--baseline", "b.json", "--write-baseline"]) == 0
    baseline_path = orphan_repo / "b.json"
    data = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert [entry["rule"] for entry in data["entries"]] == ["SA205"]
    assert main([*ONLY_SA205, "--baseline", "b.json"]) == 1  # TODO reason is refused
    data["entries"][0]["reason"] = "kept as the instrument of tests/test_extra.py"
    baseline_path.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main([*ONLY_SA205, "--baseline", "b.json", "--strict"]) == 0
    assert "1 baselined" in capsys.readouterr().out
    # The module gains a real caller: the entry is now stale.
    (orphan_repo / "src" / "repro" / "cli.py").write_text(
        "from repro.analysis import helper, used\n", encoding="utf-8"
    )
    assert main([*ONLY_SA205, "--baseline", "b.json"]) == 0
    assert main([*ONLY_SA205, "--baseline", "b.json", "--strict"]) == 1
    assert "stale baseline entry" in capsys.readouterr().err


# -- suppressions ----------------------------------------------------------


def test_suppression_comment_silences_matching_rule():
    src = """
    import numpy as np
    x = np.random.rand(3)  # sacheck: disable=SA102 -- intentional chaos noise
    """
    findings, ctx = scan_source(textwrap.dedent(src), [GlobalRngRule()],
                                rel_path=SIM)
    assert findings == []
    assert [f.rule for f in ctx.suppressed] == ["SA102"]


def test_suppression_requires_matching_id_unless_all():
    src = "import numpy as np\nx = np.random.rand(3)  # sacheck: disable=SA101\n"
    findings, _ = scan_source(src, [GlobalRngRule()], rel_path=SIM)
    assert len(findings) == 1
    src_all = "import numpy as np\nx = np.random.rand(3)  # sacheck: disable=all\n"
    findings_all, _ = scan_source(src_all, [GlobalRngRule()], rel_path=SIM)
    assert findings_all == []


def test_parse_suppressions_formats():
    table = parse_suppressions(
        "a = 1  # sacheck: disable=SA101,SA102\n"
        "b = 2  # sacheck: disable=all -- why not\n"
        "c = 3  # unrelated comment\n"
    )
    assert table == {1: {"SA101", "SA102"}, 2: {"all"}}


# -- baseline --------------------------------------------------------------


def make_findings():
    src = "import numpy as np\nx = np.random.rand(1)\ny = np.random.rand(2)\n"
    findings, _ = scan_source(src, [GlobalRngRule()], rel_path=SIM)
    assert len(findings) == 2
    return findings


def test_baseline_round_trip(tmp_path):
    findings = make_findings()
    baseline = baseline_from_findings(findings, Baseline())
    for entry in baseline.entries:
        entry.reason = "seed fixture"
    path = tmp_path / "baseline.json"
    baseline.save(path)
    loaded = Baseline.load(path)
    new, matched, stale = loaded.apply(findings)
    assert new == [] and len(matched) == 2 and stale == []


def test_baseline_fingerprint_survives_line_drift():
    findings = make_findings()
    baseline = baseline_from_findings(findings, Baseline())
    shifted = "import numpy as np\n\n\nx = np.random.rand(1)\ny = np.random.rand(2)\n"
    drifted, _ = scan_source(shifted, [GlobalRngRule()], rel_path=SIM)
    new, matched, _ = baseline.apply(drifted)
    assert new == [] and len(matched) == 2


def test_baseline_counts_extra_occurrences_as_new():
    findings = make_findings()
    baseline = baseline_from_findings(findings[:1], Baseline())
    new, matched, stale = baseline.apply(findings)
    assert len(matched) == 1 and len(new) == 1


def test_baseline_flags_unjustified_and_preserves_reasons():
    findings = make_findings()
    baseline = baseline_from_findings(findings, Baseline())
    assert len(baseline.unjustified()) == len(baseline.entries)
    baseline.entries[0].reason = "because physics"
    regenerated = baseline_from_findings(findings, baseline)
    reasons = sorted(entry.reason for entry in regenerated.entries)
    assert reasons[0] == "TODO: justify" and reasons[1] == "because physics"


def test_baseline_reports_stale_entries():
    findings = make_findings()
    baseline = baseline_from_findings(findings, Baseline())
    for entry in baseline.entries:
        entry.reason = "fixture"
    new, matched, stale = baseline.apply(findings[:1])
    assert len(stale) == 1 and new == []


# -- CLI / integration -----------------------------------------------------


def test_cli_repo_scan_matches_committed_baseline(capsys):
    # The acceptance contract: the shipped tree is clean against the
    # shipped baseline, and every baseline entry is justified.
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "0 new finding(s)" in out


def test_committed_baseline_entries_are_justified_and_not_stale(capsys):
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
    assert baseline.unjustified() == []
    # Through the CLI: the SA2xx entries need its whole-program index.
    assert main(["--strict"]) == 0
    assert "stale" not in capsys.readouterr().out
    assert sorted(e.path for e in baseline.entries if e.rule == "SA205") == [
        "src/repro/analysis/stats.py",
        "src/repro/monitoring/ipc.py",
        "src/repro/service/exporter.py",
    ]


def test_cli_fails_on_seeded_violation(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "def f(x=[]):\n"
        "    return np.random.rand(3)\n"
    )
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "SA102" in out and "SA104" in out


def test_cli_json_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["--format", "json", "--out", str(report_path)])
    assert code == 0
    data = json.loads(report_path.read_text())
    assert data["tool"] == "sacheck"
    assert data["new"] == []
    assert set(data["rules"]) == set(rule_catalog())


def test_cli_write_baseline_round_trip(tmp_path, capsys):
    target = tmp_path / "baseline.json"
    assert main(["--write-baseline", "--baseline", str(target)]) == 0
    written = Baseline.load(target)
    committed = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
    assert {e.fingerprint for e in written.entries} == \
        {e.fingerprint for e in committed.entries}
    # fresh entries carry TODO reasons, which the checker refuses
    assert main(["--baseline", str(target)]) == 1


def test_cli_unknown_rule_is_usage_error(capsys):
    assert main(["--rules", "SA999"]) == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in rule_catalog():
        assert rule_id in out


def test_import_graph_contains_known_edges():
    graph = build_import_graph([REPO_ROOT / "src"], REPO_ROOT)
    edges = layer_edges(graph)
    assert ("experiments", "core") in edges
    assert ("telemetry", "core") not in edges


def test_module_name_mapping():
    assert module_name("src/repro/core/config.py") == "repro.core.config"
    assert module_name("tests/unit/test_x.py") == "tests.unit.test_x"
    assert module_name("src/repro/sim/__init__.py") == "repro.sim"
