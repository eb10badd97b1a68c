"""sacheck — the Stay-Away invariant linter.

A two-phase static-analysis pass over ``src/``, ``tests/``, ``tools/``
and ``examples/``: phase 1 builds a project-wide symbol table and call
graph (:mod:`tools.sacheck.callgraph`), phase 2 walks each file with
per-file rules (determinism, layering, numerical/config hygiene) and
interprocedural rules (effect propagation, order-stable folds, shape
contracts, shard safety).  See ``docs/STATIC_ANALYSIS.md`` for the rule
catalog and analysis architecture, and ``python -m tools.sacheck
--help`` for the CLI (text/JSON output, explicit-path scans,
justified-baseline ratchet).
"""

from tools.sacheck.baseline import Baseline, BaselineEntry, baseline_from_findings
from tools.sacheck.callgraph import FunctionInfo, ProjectIndex
from tools.sacheck.engine import (
    FileContext,
    Finding,
    Rule,
    RuleWalker,
    ScanResult,
    scan_paths,
    scan_source,
)
from tools.sacheck.layering import (
    FORBIDDEN,
    LayeringRule,
    OrphanModuleRule,
    OrphanSymbolRule,
    build_import_graph,
    layer_edges,
)
from tools.sacheck.rules import default_rules, rule_catalog

__all__ = [
    "Baseline",
    "BaselineEntry",
    "FORBIDDEN",
    "FileContext",
    "Finding",
    "FunctionInfo",
    "LayeringRule",
    "OrphanModuleRule",
    "OrphanSymbolRule",
    "ProjectIndex",
    "Rule",
    "RuleWalker",
    "ScanResult",
    "baseline_from_findings",
    "build_import_graph",
    "default_rules",
    "layer_edges",
    "rule_catalog",
    "scan_paths",
    "scan_source",
]
