"""sacheck v2: call graph, interprocedural rules, SARIF, CLI modes.

The SA201/SA202 fixtures are *the reverted PR 7 determinism bugs* —
the off-tick ``app.demand()`` probe in ``Cluster.migrate`` and the
hash-ordered water-fill fold — kept here so the analyzer provably
re-detects the exact bug class that equivalence testing had to find
by brute force.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path
from typing import List

import pytest

from tools.sacheck import cli
from tools.sacheck.callgraph import EFFECT_RNG, EFFECT_STATE, ProjectIndex
from tools.sacheck.effects import (
    SA201EffectRule,
    SA202OrderStableFoldRule,
    SA204ShardSafetyRule,
)
from tools.sacheck.engine import Finding, scan_source
from tools.sacheck.rules import default_rules
from tools.sacheck.sarif import to_sarif
from tools.sacheck.shapes import SA203ShapeContractRule, parse_docstring_shapes

REPO_ROOT = Path(__file__).resolve().parents[2]

SIM = "src/repro/sim/cluster.py"
CONTENTION = "src/repro/sim/contention.py"
ENGINE = "src/repro/sim/engine.py"
#: The kernels that carry shape-annotated docstrings today.
SHAPED_KERNELS = (
    "src/repro/mds/incremental.py",
    "src/repro/trajectory/histograms.py",
    "src/repro/core/model_health.py",
)


def check(
    source: str,
    rule,
    rel_path: str = SIM,
    with_project: bool = True,
) -> List[Finding]:
    project = (
        ProjectIndex.from_source(source, rel_path) if with_project else None
    )
    findings, _ = scan_source(
        source, [rule], rel_path=rel_path, project=project
    )
    return findings


# ---------------------------------------------------------------------------
# phase 1: symbol table / call graph / effect lattice
# ---------------------------------------------------------------------------

class TestProjectIndex:
    def test_symbols_and_method_resolution(self) -> None:
        source = (
            "class App:\n"
            "    def demand(self, clock):\n"
            "        return self._jitter()\n"
            "    def _jitter(self):\n"
            "        return self._rng.normal()\n"
            "def run(app):\n"
            "    return App().demand(0)\n"
        )
        project = ProjectIndex.from_source(source, SIM)
        mod = "repro.sim.cluster"
        assert f"{mod}.App.demand" in project.functions
        assert f"{mod}.run" in project.functions
        # demand -> self._jitter resolves through the enclosing class
        demand = project.functions[f"{mod}.App.demand"]
        assert [s.target for s in demand.call_sites] == [f"{mod}.App._jitter"]
        # run -> App().demand resolves through the chained constructor
        run = project.functions[f"{mod}.run"]
        assert f"{mod}.App.demand" in [s.target for s in run.call_sites]

    def test_effect_propagation_fixpoint(self) -> None:
        source = (
            "class App:\n"
            "    def _jitter(self):\n"
            "        return self._rng.normal()\n"
            "    def demand(self, clock):\n"
            "        return self._jitter()\n"
            "def probe(app):\n"
            "    return App().demand(0)\n"
            "def pure(x):\n"
            "    return x + 1\n"
        )
        project = ProjectIndex.from_source(source, SIM)
        mod = "repro.sim.cluster"
        assert EFFECT_RNG in project.function_effects(f"{mod}.App._jitter")
        assert EFFECT_RNG in project.function_effects(f"{mod}.App.demand")
        assert EFFECT_RNG in project.function_effects(f"{mod}.probe")
        assert project.function_effects(f"{mod}.pure") == set()

    def test_rng_typing_via_annotation_factory_and_name_hint(self) -> None:
        source = (
            "import numpy as np\n"
            "def a(gen: 'Generator'):\n"
            "    return gen.uniform()\n"
            "def b():\n"
            "    r = np.random.default_rng(7)\n"
            "    return r.normal()\n"
            "def c(self):\n"
            "    return self._rng.choice([1])\n"
            "def d(values):\n"
            "    return values.choice\n"
        )
        project = ProjectIndex.from_source(source, SIM)
        mod = "repro.sim.cluster"
        for fn in ("a", "b", "c"):
            assert EFFECT_RNG in project.function_effects(f"{mod}.{fn}"), fn
        # attribute access (not a call) on an unknown receiver: no effect
        assert project.function_effects(f"{mod}.d") == set()

    def test_state_advancing_protocol_methods(self) -> None:
        source = (
            "def tick(host):\n"
            "    host.step()\n"
        )
        project = ProjectIndex.from_source(source, SIM)
        effects = project.function_effects("repro.sim.cluster.tick")
        assert EFFECT_STATE in effects

    def test_unresolved_calls_contribute_nothing(self) -> None:
        source = (
            "def caller(mystery):\n"
            "    return mystery.frobnicate()\n"
        )
        project = ProjectIndex.from_source(source, SIM)
        assert project.function_effects("repro.sim.cluster.caller") == set()

    def test_transitive_global_mutations(self) -> None:
        source = (
            "_CACHE = {}\n"
            "def inner(key):\n"
            "    _CACHE[key] = 1\n"
            "def outer(key):\n"
            "    inner(key)\n"
        )
        project = ProjectIndex.from_source(source, ENGINE)
        found = project.transitive_global_mutations("repro.sim.engine.outer")
        assert any("_CACHE" in desc for _, _, desc in found)


# ---------------------------------------------------------------------------
# SA201 — effect propagation / off-tick probes
# ---------------------------------------------------------------------------

#: PR 7 bug #1, reverted: Cluster.migrate sized the copy by probing
#: app.demand() off-tick, advancing the app's private jitter RNG.
MIGRATE_BUG = """
class Cluster:
    def migrate(self, name, source_host, dest_host):
        container = self.hosts[source_host].containers[name]
        footprint = container.app.demand(self.clock).get("memory")
        self._place(container, dest_host, footprint)
"""


class TestSA201:
    def test_redetects_migrate_demand_probe(self) -> None:
        findings = check(MIGRATE_BUG, SA201EffectRule())
        assert [f.rule for f in findings] == ["SA201"]
        assert "off-tick" in findings[0].message
        assert "demand" in findings[0].message

    def test_read_only_context_reaching_rng_transitively(self) -> None:
        source = (
            "class Picker:\n"
            "    def _refresh(self):\n"
            "        return self._rng.normal()\n"
            "    def _eviction_victim(self):\n"
            "        self._refresh()\n"
            "        return min(self.scores)\n"
        )
        findings = check(source, SA201EffectRule())
        assert len(findings) == 1
        assert "transitively" in findings[0].message

    def test_direct_rng_draw_in_summary(self) -> None:
        source = (
            "class Engine:\n"
            "    def summary(self):\n"
            "        return {'jitter': self._rng.normal()}\n"
        )
        findings = check(source, SA201EffectRule())
        assert len(findings) == 1
        assert "RNG draw" in findings[0].message

    def test_sanctioned_tick_path_clean(self) -> None:
        source = (
            "class Container:\n"
            "    def demand(self, clock):\n"
            "        return self.app.demand(clock)\n"
            "class Host:\n"
            "    def gather_demands(self, clock):\n"
            "        return [c.demand(clock) for c in self.containers]\n"
        )
        assert check(source, SA201EffectRule()) == []

    def test_non_repro_modules_exempt(self) -> None:
        findings = check(
            MIGRATE_BUG, SA201EffectRule(), rel_path="tests/unit/test_x.py"
        )
        assert findings == []

    def test_inline_suppression_applies(self) -> None:
        source = (
            "class Cluster:\n"
            "    def migrate(self, c):\n"
            "        return c.app.demand(self.clock)  "
            "# sacheck: disable=SA201 -- test justification\n"
        )
        assert check(source, SA201EffectRule()) == []

    def test_rule_inactive_without_project(self) -> None:
        assert check(MIGRATE_BUG, SA201EffectRule(), with_project=False) == []


# ---------------------------------------------------------------------------
# SA202 — order-stable folds
# ---------------------------------------------------------------------------

#: PR 7 bug #2, reverted: weighted_water_fill folded floats over a set,
#: making grants PYTHONHASHSEED-dependent in the last ulp.
WATERFILL_BUG = """
def weighted_water_fill(demands, weights, capacity):
    granted = {name: 0.0 for name in demands}
    hungry = {name for name, demand in demands.items() if demand > 0}
    remaining = capacity
    while hungry and remaining > 1e-12:
        total_weight = sum(weights.get(name, 1.0) for name in hungry)
        for name in hungry:
            take = remaining * weights.get(name, 1.0) / total_weight
            granted[name] += take
            remaining -= take
        hungry = {name for name in hungry if granted[name] < demands[name]}
    return granted
"""


class TestSA202:
    def test_redetects_waterfill_set_fold(self) -> None:
        findings = check(
            WATERFILL_BUG, SA202OrderStableFoldRule(), rel_path=CONTENTION
        )
        assert {f.rule for f in findings} == {"SA202"}
        # both the sum() fold and the accumulation loop are caught
        assert len(findings) == 2

    def test_sorted_view_is_the_sanctioned_fix(self) -> None:
        source = (
            "def fill(demands):\n"
            "    hungry = {n for n in demands}\n"
            "    total = 0.0\n"
            "    for name in sorted(hungry):\n"
            "        total += demands[name]\n"
            "    return total + sum(demands[n] for n in sorted(hungry))\n"
        )
        assert check(source, SA202OrderStableFoldRule(), rel_path=CONTENTION) == []

    def test_plain_dict_iteration_is_fine(self) -> None:
        source = (
            "def fill(demands):\n"
            "    total = 0.0\n"
            "    for name in demands:\n"
            "        total += demands[name]\n"
            "    return total\n"
        )
        assert check(source, SA202OrderStableFoldRule(), rel_path=CONTENTION) == []

    def test_set_algebra_and_fromkeys_still_sets(self) -> None:
        source = (
            "def fill(a, b, demands):\n"
            "    live = {n for n in a} | {n for n in b}\n"
            "    order = dict.fromkeys({n for n in a})\n"
            "    total = 0.0\n"
            "    for n in live:\n"
            "        total += demands[n]\n"
            "    for n in order.keys():\n"
            "        total += demands[n]\n"
            "    return total\n"
        )
        findings = check(source, SA202OrderStableFoldRule(), rel_path=CONTENTION)
        assert len(findings) == 2

    def test_only_deterministic_layers_checked(self) -> None:
        findings = check(
            WATERFILL_BUG,
            SA202OrderStableFoldRule(),
            rel_path="src/repro/analysis/accuracy.py",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# SA203 — docstring shape contracts
# ---------------------------------------------------------------------------

SHAPED_HEADER = '''
import numpy as np
def resolve(demand, host_index, capacity):
    """Batched resolver.

    Parameters
    ----------
    demand:
        ``(C, R)`` demand rows.
    host_index:
        ``(C,)`` row -> host map.
    capacity:
        ``(H, R)`` capacities.
    """
'''


class TestSA203:
    def test_parse_docstring_shapes(self) -> None:
        doc = (
            "Summary.\n\nParameters\n----------\n"
            "demand:\n    ``(C, R)`` rows.\n"
            "swap_cost / swap_io_rate:\n    ``(H,)`` params.\n"
        )
        shapes = parse_docstring_shapes(doc)
        assert shapes == {
            "demand": ("C", "R"),
            "swap_cost": ("H",),
            "swap_io_rate": ("H",),
        }

    def test_add_at_index_axis_mismatch(self) -> None:
        source = SHAPED_HEADER + (
            "    totals = np.zeros_like(capacity)\n"
            "    np.add.at(totals, host_index, capacity)\n"  # capacity is (H, R)
            "    return totals\n"
        )
        findings = check(source, SA203ShapeContractRule(), rel_path=CONTENTION)
        assert len(findings) == 1
        assert "index axis" in findings[0].message

    def test_broadcast_axis_mismatch(self) -> None:
        source = SHAPED_HEADER + "    return demand * capacity\n"
        findings = check(source, SA203ShapeContractRule(), rel_path=CONTENTION)
        assert len(findings) == 1
        assert "broadcast mismatch" in findings[0].message

    def test_correct_kernel_is_clean(self) -> None:
        source = SHAPED_HEADER + (
            "    totals = np.zeros_like(capacity)\n"
            "    np.add.at(totals, host_index, demand)\n"
            "    share = np.where(totals > 0, capacity / totals, 1.0)\n"
            "    return demand * share[host_index]\n"
        )
        assert check(source, SA203ShapeContractRule(), rel_path=CONTENTION) == []

    def test_real_kernels_are_clean(self) -> None:
        for rel in SHAPED_KERNELS:
            source = (REPO_ROOT / rel).read_text(encoding="utf-8")
            findings, _ = scan_source(
                source, [SA203ShapeContractRule()], rel_path=rel
            )
            assert findings == [], rel

    def test_unannotated_functions_skipped(self) -> None:
        source = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    return a * b\n"
        )
        assert check(source, SA203ShapeContractRule(), rel_path=CONTENTION) == []


# ---------------------------------------------------------------------------
# SA204 — shard safety
# ---------------------------------------------------------------------------

SHARD_BUG = """
import multiprocessing
_RESULTS = []
def _run_shard(payload):
    _RESULTS.append(payload)
    return payload
def run_all(payloads):
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        return pool.map(_run_shard, payloads)
"""


class TestSA204:
    def test_worker_mutating_module_global(self) -> None:
        findings = check(SHARD_BUG, SA204ShardSafetyRule(), rel_path=ENGINE)
        assert [f.rule for f in findings] == ["SA204"]
        assert "_run_shard" in findings[0].message

    def test_worker_mutating_transitively(self) -> None:
        source = (
            "_STATE = {}\n"
            "def _helper(x):\n"
            "    _STATE[x] = 1\n"
            "def _worker(x):\n"
            "    _helper(x)\n"
            "    return x\n"
            "def run(pool, xs):\n"
            "    return pool.map(_worker, xs)\n"
        )
        findings = check(source, SA204ShardSafetyRule(), rel_path=ENGINE)
        assert len(findings) == 1
        assert "_helper" in findings[0].message

    def test_pure_worker_clean(self) -> None:
        source = (
            "def _run_shard(payload):\n"
            "    return payload * 2\n"
            "def run_all(pool, payloads):\n"
            "    return pool.map(_run_shard, payloads)\n"
        )
        assert check(source, SA204ShardSafetyRule(), rel_path=ENGINE) == []

    def test_process_target_keyword(self) -> None:
        source = (
            "import multiprocessing\n"
            "_LOG = []\n"
            "def _worker():\n"
            "    _LOG.append(1)\n"
            "def spawn():\n"
            "    p = multiprocessing.Process(target=_worker)\n"
            "    p.start()\n"
        )
        findings = check(source, SA204ShardSafetyRule(), rel_path=ENGINE)
        assert len(findings) == 1

    def test_map_on_non_pool_receiver_ignored(self) -> None:
        source = (
            "_LOG = []\n"
            "def _worker(x):\n"
            "    _LOG.append(x)\n"
            "def run(series, xs):\n"
            "    return series.map(_worker, xs)\n"
        )
        assert check(source, SA204ShardSafetyRule(), rel_path=ENGINE) == []


# ---------------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------------

def _scan_repo_sarif() -> dict:
    from tools.sacheck.baseline import Baseline
    from tools.sacheck.engine import scan_paths

    rules = default_rules()
    targets = [REPO_ROOT / t for t in cli.DEFAULT_TARGETS if (REPO_ROOT / t).exists()]
    project = ProjectIndex.build(
        targets, REPO_ROOT, [REPO_ROOT / t for t in cli.IMPORT_ONLY_TARGETS]
    )
    result = scan_paths(targets, rules, REPO_ROOT, project=project)
    baseline = Baseline.load(REPO_ROOT / cli.DEFAULT_BASELINE)
    new, baselined, _ = baseline.apply(sorted(
        result.findings, key=lambda f: (f.path, f.line, f.rule)
    ))
    result.findings = new
    reasons = {e.fingerprint: e.reason for e in baseline.entries}
    return to_sarif(result, rules, baselined=baselined, baseline_reasons=reasons)


class TestSarif:
    """Structural validation against the SARIF 2.1.0 schema.

    jsonschema isn't available in the image, so the required-property
    and type constraints of the schema subset we emit are asserted by
    hand: sarifLog { version, runs[] }, run { tool.driver{name, rules[]},
    results[] }, result { ruleId, message.text, locations[] },
    physicalLocation { artifactLocation.uri, region.startLine >= 1 }.
    """

    def test_document_structure(self) -> None:
        doc = _scan_repo_sarif()
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        assert isinstance(doc["runs"], list) and len(doc["runs"]) == 1
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "sacheck"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert len(rule_ids) == len(set(rule_ids))
        assert {"SA201", "SA202", "SA203", "SA204"} <= set(rule_ids)
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["fullDescription"]["text"]

    def test_results_reference_rules_and_locations(self) -> None:
        doc = _scan_repo_sarif()
        run = doc["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            assert result["level"] in ("note", "warning", "error")
            assert result["message"]["text"]
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"]
            assert location["region"]["startLine"] >= 1
            assert location["region"]["startColumn"] >= 1
            assert result["fingerprints"]["sacheck/v1"]

    def test_suppressions_kinds(self) -> None:
        doc = _scan_repo_sarif()
        kinds = set()
        for result in doc["runs"][0]["results"]:
            for suppression in result.get("suppressions", []):
                assert suppression["kind"] in ("external", "inSource")
                assert suppression["status"] == "accepted"
                kinds.add(suppression["kind"])
        # the committed tree has both baselined and inline-suppressed findings
        assert kinds == {"external", "inSource"}

    def test_json_serializable(self) -> None:
        json.dumps(_scan_repo_sarif())


# ---------------------------------------------------------------------------
# CLI: exit codes, --diff mode, cwd independence
# ---------------------------------------------------------------------------

def _git(tmp: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", *args],
        cwd=tmp, check=True, capture_output=True,
    )


CLEAN_MODULE = (
    "def gather_demands(host, clock):\n"
    "    return [c.demand(clock) for c in host.containers]\n"
)


@pytest.fixture
def mini_repo(tmp_path: Path, monkeypatch) -> Path:
    """A throwaway git repo shaped like this project, with cli rebound."""
    (tmp_path / "src" / "repro" / "sim").mkdir(parents=True)
    module = tmp_path / "src" / "repro" / "sim" / "cluster.py"
    module.write_text(CLEAN_MODULE, encoding="utf-8")
    # A caller, so neither the module (SA205) nor its function (SA206)
    # is an orphan.
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "drive.py").write_text(
        "from repro.sim.cluster import gather_demands\n"
        "print(gather_demands(None, None))\n",
        encoding="utf-8",
    )
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "seed")
    monkeypatch.setattr(cli, "REPO_ROOT", tmp_path)
    return tmp_path


class TestCliDiff:
    def test_clean_diff_exits_zero(self, mini_repo: Path, capsys) -> None:
        assert cli.main(["--diff", "HEAD", "--no-baseline"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_new_finding_in_changed_file_fails(
        self, mini_repo: Path, capsys
    ) -> None:
        module = mini_repo / "src" / "repro" / "sim" / "cluster.py"
        module.write_text(CLEAN_MODULE + MIGRATE_BUG, encoding="utf-8")
        assert cli.main(["--diff", "HEAD", "--no-baseline"]) == 1
        assert "SA201" in capsys.readouterr().out

    def test_preexisting_finding_is_baselined_not_failed(
        self, mini_repo: Path, capsys
    ) -> None:
        module = mini_repo / "src" / "repro" / "sim" / "cluster.py"
        module.write_text(CLEAN_MODULE + MIGRATE_BUG, encoding="utf-8")
        # grandfather the finding with a justified baseline...
        assert cli.main(["--baseline", "b.json", "--write-baseline"]) == 0
        baseline_path = mini_repo / "b.json"
        data = json.loads(baseline_path.read_text(encoding="utf-8"))
        for entry in data["entries"]:
            entry["reason"] = "grandfathered for the diff-mode test"
        baseline_path.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        # ...then a diff scan of the same (changed) file passes, strict
        # included: stale entries never fail a subset scan.
        assert cli.main(["--diff", "HEAD", "--baseline", "b.json", "--strict"]) == 0
        out = capsys.readouterr().out
        # the SA201 probe, and SA206 for the Cluster class nothing builds
        assert "0 new finding(s), 2 baselined" in out

    def test_diff_with_paths_is_an_error(self, mini_repo: Path) -> None:
        assert cli.main(["--diff", "HEAD", "src"]) == 2

    def test_diff_against_bad_ref_is_usage_error(self, mini_repo: Path) -> None:
        assert cli.main(["--diff", "no-such-ref", "--no-baseline"]) == 2


class TestCliCwdIndependence:
    def _findings(self, out: Path) -> dict:
        assert cli.main(["--format", "json", "--out", str(out)]) == 0
        return json.loads(out.read_text(encoding="utf-8"))

    def test_same_findings_from_subdirectory(self, tmp_path: Path) -> None:
        from_root = tmp_path / "root.json"
        from_sub = tmp_path / "sub.json"
        cwd = os.getcwd()
        try:
            os.chdir(REPO_ROOT)
            root_report = self._findings(from_root)
            os.chdir(REPO_ROOT / "docs")
            sub_report = self._findings(from_sub)
        finally:
            os.chdir(cwd)
        for key in ("new", "baselined", "suppressed", "files_checked"):
            assert root_report[key] == sub_report[key], key

    def test_relative_baseline_resolves_against_repo_root(
        self, tmp_path: Path, monkeypatch, capsys
    ) -> None:
        # Same relative --baseline spelling from two cwds loads the
        # same file: the default baseline, repo-root-relative.
        rel = "tools/sacheck/baseline.json"
        cwd = os.getcwd()
        try:
            os.chdir(REPO_ROOT / "docs")
            assert cli.main(["--baseline", rel]) == 0
        finally:
            os.chdir(cwd)
        assert "7 baselined" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# SA206 — orphan symbols
# ---------------------------------------------------------------------------

#: ``Host.history`` is called by a test only; ``snapshot_digest`` is
#: re-exported and listed in ``__all__`` and otherwise only tested.
#: Everything else is called from ``cli.py``, private, a dunder, or an
#: override of a method something calls.
SYMBOL_TREE = {
    "src/repro/__init__.py": "",
    "src/repro/__main__.py": "from repro.cli import main\nmain()\n",
    "src/repro/cli.py": (
        "from repro.sim import Host, Probe\n"
        "def main():\n"
        "    host = Host()\n"
        "    host.step()\n"
        "    return Probe().step()\n"
    ),
    "src/repro/sim/__init__.py": (
        "from repro.sim.host import Host, Probe, snapshot_digest\n"
        '__all__ = ["Host", "Probe", "snapshot_digest"]\n'
    ),
    "src/repro/sim/host.py": (
        "class Host:\n"
        "    def __init__(self):\n"
        "        self._ticks = 0\n"
        "    def __len__(self):\n"
        "        return self._ticks\n"
        "    def step(self):\n"
        "        self._advance()\n"
        "        return self._ticks\n"
        "    def _advance(self):\n"
        "        self._ticks += 1\n"
        "    def history(self):\n"
        "        return list(range(self._ticks))\n"
        "class Probe(Host):\n"
        "    def step(self):\n"
        "        return -1\n"
        "def snapshot_digest(host):\n"
        "    return hash(len(host))\n"
    ),
    "tests/test_host.py": (
        "from repro.sim import Host, snapshot_digest\n"
        "assert Host().history() == []\n"
        "snapshot_digest(Host())\n"
    ),
}
ONLY_SA206 = ("--rules", "SA206")


@pytest.fixture
def symbol_repo(tmp_path: Path, monkeypatch) -> Path:
    for rel, source in SYMBOL_TREE.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    monkeypatch.setattr(cli, "REPO_ROOT", tmp_path)
    return tmp_path


def _add(repo: Path, rel: str, source: str) -> None:
    path = repo / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")


class TestSA206:
    def test_test_only_method_and_bare_reexport_are_the_only_findings(
        self, symbol_repo: Path, capsys
    ) -> None:
        assert cli.main([*ONLY_SA206, "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "src/repro/sim/host.py:11:4: SA206 'Host.history'" in out
        assert "src/repro/sim/host.py:16:0: SA206 'snapshot_digest'" in out
        # private, dunder, the override of a called method, the classes
        # cli.py builds and the entry point's main() are not reported
        assert "2 new finding(s)" in out

    @pytest.mark.parametrize(
        "rel, source",
        [
            ("benchmarks/bench_host.py", "print(host.history(), snapshot_digest)\n"),
            ("examples/drive.py", "import repro.sim as sim\nsim.snapshot_digest(h).history\n"),
            ("tools/patch.py", 'POINTS = [("Host", "history"), ("host", "snapshot_digest")]\n'),
            ("src/repro/report.py", "def report(host):\n    return host.history(), snapshot_digest\nreport(0)\n"),
        ],
        ids=["benchmark", "example", "patch-table-strings", "src"],
    )
    def test_a_use_outside_tests_is_a_caller(
        self, symbol_repo: Path, capsys, rel: str, source: str
    ) -> None:
        _add(symbol_repo, rel, source)
        assert cli.main([*ONLY_SA206, "--no-baseline"]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_an_import_is_not_a_use(self, symbol_repo: Path, capsys) -> None:
        _add(symbol_repo, "benchmarks/bench_host.py",
             "from repro.sim import snapshot_digest\n")
        assert cli.main([*ONLY_SA206, "--no-baseline"]) == 1
        assert "'snapshot_digest'" in capsys.readouterr().out

    def test_a_call_from_its_own_body_is_not_a_use(
        self, symbol_repo: Path, capsys
    ) -> None:
        _add(symbol_repo, "src/repro/sim/walk.py",
             "def descend(n):\n    return descend(n - 1) if n else 0\n")
        assert cli.main([*ONLY_SA206, "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "src/repro/sim/walk.py:1:0: SA206 'descend'" in out
        assert "3 new finding(s)" in out

    def test_an_unused_class_is_one_finding_not_one_per_method(
        self, symbol_repo: Path, capsys
    ) -> None:
        _add(symbol_repo, "src/repro/sim/recorder.py",
             "class Recorder:\n    def replay(self):\n        return []\n")
        _add(symbol_repo, "tests/test_recorder.py",
             "from repro.sim.recorder import Recorder\nRecorder().replay()\n")
        assert cli.main([*ONLY_SA206, "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "src/repro/sim/recorder.py:1:0: SA206 'Recorder'" in out
        assert "Recorder.replay" not in out
        assert "3 new finding(s)" in out

    def test_justified_entry_goes_stale_when_the_symbol_gains_a_caller(
        self, symbol_repo: Path, capsys
    ) -> None:
        assert cli.main([*ONLY_SA206, "--baseline", "b.json", "--write-baseline"]) == 0
        baseline_path = symbol_repo / "b.json"
        data = json.loads(baseline_path.read_text(encoding="utf-8"))
        assert [(e["rule"], e["snippet"]) for e in data["entries"]] == [
            ("SA206", "def history(self):"),
            ("SA206", "def snapshot_digest(host):"),
        ]
        assert cli.main([*ONLY_SA206, "--baseline", "b.json"]) == 1  # TODO refused
        for entry in data["entries"]:
            entry["reason"] = "read through by tests/test_host.py"
        baseline_path.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert cli.main([*ONLY_SA206, "--baseline", "b.json", "--strict"]) == 0
        assert "2 baselined" in capsys.readouterr().out
        _add(symbol_repo, "benchmarks/bench_host.py", "print(host.history())\n")
        assert cli.main([*ONLY_SA206, "--baseline", "b.json"]) == 0
        assert cli.main([*ONLY_SA206, "--baseline", "b.json", "--strict"]) == 1
        err = capsys.readouterr().err
        assert "stale baseline entry" in err and "def history(self):" in err

    def test_rule_is_listed_and_runs_by_default(self, capsys) -> None:
        assert cli.main(["--list-rules"]) == 0
        assert "SA206  orphan-symbol" in capsys.readouterr().out
        assert "SA206" in {rule.id for rule in default_rules()}


class TestRepoIsClean:
    def test_full_scan_passes_with_committed_baseline(self, capsys) -> None:
        assert cli.main([]) == 0
        out = capsys.readouterr().out
        assert "0 new finding(s)" in out

    def test_interprocedural_rules_active_in_default_scan(self) -> None:
        ids = {rule.id for rule in default_rules()}
        assert {"SA201", "SA202", "SA203", "SA204"} <= ids
