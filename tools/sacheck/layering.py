"""SA103 — architectural layering, enforced on the import graph.

The control loop (map → predict → act, paper §3) must stay a library
the simulator *drives*, not one that reaches back into it:

* ``core`` must not import ``sim`` / ``workloads`` / ``baselines`` /
  ``experiments`` — the controller runs against real hosts in the
  paper; growing a hard dependency on the simulator would weld the
  reproduction to its testbed substitute (see DESIGN.md).
* ``telemetry`` must not import ``core`` — self-measurement is a leaf
  service; a cycle here would make the overhead benchmark circular.
* ``monitoring`` must not import ``sim`` — sensors see value types
  (snapshots, vectors), not the machinery that produced them.
* ``sim`` is substrate: it must not import ``core`` / ``monitoring`` /
  ``baselines`` / ``experiments`` / ``analysis`` (or ``fleet``). This
  matters doubly for the batched engine (``sim.batch``), which the
  fleet layer and benchmarks drive at scale — an upward import there
  would drag the whole control plane into every array worker process.
  (``workloads`` is allowed: the scheduler places ``Application``
  instances.)
* ``baselines`` must not import ``experiments`` / ``analysis`` — the
  comparators (reactive, Q-Clouds, GMM thresholds, …) are controller
  peers the harness drives; if one reached up into the harness or the
  scoring code, the head-to-head studies would measure a detector that
  can see its own scorecard.
* ``fleet`` sits above ``core``/``sim``/``monitoring`` and below
  ``experiments``: it must not import ``workloads`` / ``baselines`` /
  ``experiments`` / ``analysis`` / ``service``, and nothing beneath it
  (``core``, ``sim``, ``monitoring``, ``telemetry``, ``workloads``,
  ``baselines``) may import ``fleet`` — one crashed coordinator must
  never be able to take a host-local control loop down with it.
* ``service`` (the streaming controller-as-a-service seam) wraps
  ``core`` behind wire records: it may import ``core`` /
  ``monitoring`` / ``telemetry`` (and ``sim`` value types for its
  reconstructed host views), but must not import ``workloads`` /
  ``baselines`` / ``experiments`` / ``analysis`` / ``fleet``, and
  nothing beneath it (``core``, ``sim``, ``monitoring``,
  ``telemetry``, ``workloads``, ``baselines``) may import ``service``
  — the in-process control loop must keep working when the service
  seam is deleted. ``fleet`` and ``service`` are independent siblings
  above ``core``: a stream-backed fleet cell is wired by the caller
  through ``controller_factory``, not by either package.

Imports inside ``if TYPE_CHECKING:`` are exempt: they vanish at
runtime, which is exactly the sanctioned way to keep type hints across
a layer boundary.

Besides the rule, this module builds the full intra-``repro`` import
graph (``build_import_graph``) so ``python -m tools.sacheck
--import-graph`` can print the actual layer edges for docs and review.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from tools.sacheck.engine import (
    FileContext,
    Finding,
    Rule,
    RuleWalker,
    iter_python_files,
    layer_of,
    module_name,
    relative_path,
)

#: layer -> layers it must never import at runtime
FORBIDDEN: Dict[str, Set[str]] = {
    "core": {"sim", "workloads", "baselines", "experiments", "fleet", "service"},
    "telemetry": {"core", "fleet", "service"},
    "monitoring": {"sim", "fleet", "service"},
    "sim": {
        "fleet",
        "core",
        "monitoring",
        "baselines",
        "experiments",
        "analysis",
        "service",
    },
    "workloads": {"fleet", "service"},
    "baselines": {"fleet", "experiments", "analysis", "service"},
    "service": {"workloads", "baselines", "experiments", "analysis", "fleet"},
    "fleet": {"workloads", "baselines", "experiments", "analysis", "service"},
}

#: Top-level trees with their own layering rules (beyond repro.*):
#: ``tools`` (sacheck) must never import ``repro`` — the linter has to
#: stay runnable on a tree whose ``repro`` package doesn't import (that
#: is the state it exists to diagnose); ``examples`` may import repro
#: but nothing may import ``examples`` — example scripts are leaves,
#: not a library surface.
TOOLS_TOP = "tools"
EXAMPLES_TOP = "examples"


def _import_targets(node: ast.stmt, current_module: str) -> List[str]:
    """Absolute dotted module targets of an Import/ImportFrom node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        if node.level:
            parts = current_module.split(".")
            base = ".".join(parts[: len(parts) - node.level])
            module = f"{base}.{node.module}" if node.module else base
        else:
            module = node.module or ""
        return [module] if module else []
    return []


class LayeringRule(Rule):
    """SA103 — forbidden cross-layer imports (see module docstring)."""

    id = "SA103"
    name = "layering"
    rationale = (
        "core stays simulator-agnostic, telemetry stays a leaf, "
        "monitoring sees value types only; TYPE_CHECKING imports exempt"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        # repro layers with a forbidden set, the tools tree (must not
        # import repro), and everyone else (must not import examples).
        return True

    def visit_import(self, node: ast.stmt, ctx: FileContext, walker: RuleWalker) -> Iterable[Finding]:
        if walker.in_type_checking:
            return
        top = ctx.module.split(".")[0]
        forbidden = FORBIDDEN.get(ctx.layer or "", set())
        for target in _import_targets(node, ctx.module):
            target_top = target.split(".")[0]
            if target_top == EXAMPLES_TOP and top != EXAMPLES_TOP:
                yield self.make_finding(
                    ctx, node,
                    f"'{ctx.module}' imports '{target}'; examples are "
                    "leaf scripts — nothing may depend on them",
                )
                continue
            if top == TOOLS_TOP and target_top == "repro":
                yield self.make_finding(
                    ctx, node,
                    f"'{ctx.module}' imports '{target}'; tools (sacheck) "
                    "must stay independent of repro so the linter runs on "
                    "a broken tree",
                )
                continue
            target_layer = layer_of(target)
            if target_layer in forbidden:
                yield self.make_finding(
                    ctx, node,
                    f"layer '{ctx.layer}' imports '{target}' (layer "
                    f"'{target_layer}'); move the import under "
                    "TYPE_CHECKING if it is type-only, otherwise break "
                    "the dependency",
                )


def build_import_graph(paths: Sequence[Path], repo_root: Path) -> Dict[str, Set[str]]:
    """``{module: {imported repro modules}}`` over every file in ``paths``."""
    graph: Dict[str, Set[str]] = {}
    for file_path in iter_python_files(paths, repo_root):
        rel = relative_path(file_path, repo_root)
        try:
            tree = ast.parse(file_path.read_text(encoding="utf-8"), filename=rel)
        except (SyntaxError, UnicodeDecodeError):
            continue
        module = module_name(rel)
        edges = graph.setdefault(module, set())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for target in _import_targets(node, module):
                    if target.split(".")[0] == "repro":
                        edges.add(target)
    return graph


def layer_edges(graph: Dict[str, Set[str]]) -> List[Tuple[str, str]]:
    """Distinct ``(from_layer, to_layer)`` edges, sorted."""
    edges: Set[Tuple[str, str]] = set()
    for module, targets in graph.items():
        src_layer = layer_of(module)
        if src_layer is None:
            continue
        for target in targets:
            dst_layer = layer_of(target)
            if dst_layer is not None and dst_layer != src_layer:
                edges.add((src_layer, dst_layer))
    return sorted(edges)
