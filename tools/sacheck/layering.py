"""SA103 — architectural layering, enforced on the import graph.

The control loop (map → predict → act, paper §3) must stay a library
the simulator *drives*, not one that reaches back into it:

* ``core`` must not import ``sim`` / ``workloads`` / ``baselines`` /
  ``experiments`` — the controller runs against real hosts in the
  paper; growing a hard dependency on the simulator would weld the
  reproduction to its testbed substitute (see DESIGN.md).
* ``telemetry`` must not import ``core`` — self-measurement is a leaf
  service; a cycle here would make the overhead benchmark circular.
* ``monitoring`` must not import ``sim`` — sensors read the tick's
  ``repro.observation.Observation``, not the machinery that produced
  it.
* ``observation`` is the leaf every layer may import (the value a
  period reads): it must import nothing from ``repro``.
* ``sim`` is substrate: it must not import ``core`` / ``monitoring`` /
  ``baselines`` / ``experiments`` / ``analysis`` (or ``fleet``). The
  fleet layer and the benchmarks drive it at scale — an upward import
  would drag the whole control plane into every process that steps a
  host. (``workloads`` is allowed: the scheduler places
  ``Application`` instances.)
* ``baselines`` must not import ``experiments`` / ``analysis`` — the
  comparators (reactive, Q-Clouds, …) are controller peers the harness
  drives; if one reached up into the harness or the analysis code, a
  comparison would measure a baseline that can see its own results.
* ``fleet`` sits above ``core``/``sim``/``monitoring`` and below
  ``experiments``: it must not import ``workloads`` / ``baselines`` /
  ``experiments`` / ``analysis`` / ``service``, and nothing beneath it
  (``core``, ``sim``, ``monitoring``, ``telemetry``, ``workloads``,
  ``baselines``) may import ``fleet`` — one crashed coordinator must
  never be able to take a host-local control loop down with it.
* ``service`` (the streaming controller-as-a-service seam) wraps
  ``core`` behind wire records: it may import ``core`` /
  ``monitoring`` / ``telemetry``, but must not import ``sim`` /
  ``workloads`` / ``baselines`` / ``experiments`` / ``analysis`` /
  ``fleet``, and
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
--import-graph`` can print the actual layer edges for docs and review,
and checks one more thing on that graph: SA205, no orphan modules
(:class:`OrphanModuleRule`). Its symbol-level sibling SA206
(:class:`OrphanSymbolRule`) reads :func:`build_name_references`, the
same files' identifiers.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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

if TYPE_CHECKING:  # callgraph imports this module for build_import_graph
    from tools.sacheck.callgraph import ProjectIndex

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
    "observation": {
        "core", "sim", "monitoring", "service", "fleet", "workloads", "baselines",
        "experiments", "analysis", "telemetry", "mds", "trajectory",
    },
    "baselines": {"fleet", "experiments", "analysis", "service"},
    "service": {"sim", "workloads", "baselines", "experiments", "analysis", "fleet"},
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


def _parsed_files(
    paths: Sequence[Path],
    repo_root: Path,
    parsed: Optional[Mapping[str, Tuple[str, ast.Module]]],
) -> Iterator[Tuple[str, ast.Module]]:
    """``(rel_path, tree)`` of every parseable file under ``paths``.

    ``parsed`` is an optional ``{rel_path: (source, tree)}`` cache
    (``ProjectIndex.files``); anything not in it is read and parsed.
    """
    for file_path in iter_python_files(paths, repo_root):
        rel = relative_path(file_path, repo_root)
        cached = parsed.get(rel) if parsed is not None else None
        try:
            tree = cached[1] if cached is not None else ast.parse(
                file_path.read_text(encoding="utf-8"), filename=rel
            )
        except (SyntaxError, UnicodeDecodeError):
            continue
        yield rel, tree


def build_import_graph(
    paths: Sequence[Path],
    repo_root: Path,
    parsed: Optional[Mapping[str, Tuple[str, ast.Module]]] = None,
) -> Dict[str, Set[str]]:
    """``{module: {imported repro modules}}`` over every file in ``paths``.

    ``from pkg import name`` is an edge to the module that *defines*
    ``name``: ``pkg.name`` when that is a module of the tree, else —
    when ``pkg`` itself only imported the name — wherever ``pkg`` got
    it from (package ``__init__`` re-exports, followed to the end).
    Anything else stays an edge to ``pkg``. ``parsed`` is an optional
    ``{rel_path: (source, tree)}`` cache (``ProjectIndex.files``).
    """
    #: module -> [(imported module, imported name or None, local binding)]
    imports: Dict[str, List[Tuple[str, Optional[str], str]]] = {}
    for rel, tree in _parsed_files(paths, repo_root, parsed):
        module = module_name(rel)
        bound = imports.setdefault(module, [])
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.extend((alias.name, None, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                for target in _import_targets(node, module):
                    bound.extend(
                        (target, alias.name, alias.asname or alias.name)
                        for alias in node.names
                    )

    def defining_module(target: str, name: Optional[str]) -> str:
        seen: Set[Tuple[str, str]] = set()
        while name is not None and (target, name) not in seen:
            seen.add((target, name))
            if f"{target}.{name}" in imports:
                return f"{target}.{name}"
            origin = next(
                (
                    (source, original)
                    for source, original, local in imports.get(target, ())
                    if local == name and original is not None
                ),
                None,
            )
            if origin is None:
                break
            target, name = origin
        return target

    graph: Dict[str, Set[str]] = {}
    for module, bound in imports.items():
        edges = graph.setdefault(module, set())
        for target, name, _ in bound:
            if target.split(".")[0] == "repro":
                edges.add(defining_module(target, name))
    return graph


class OrphanModuleRule(Rule):
    """SA205 — every ``repro.*`` module has a caller outside its tests.

    A module earns its place when something that *uses* the system
    imports it: another ``src/`` module, a benchmark, an example. A
    module whose only importers are the ``__init__`` of a package it
    lives in (a re-export is not a use) or files under ``tests/`` was
    written for traffic that never came. One hop over
    :func:`build_import_graph` — no reachability closure, so a finding
    always names an import edge that is really missing. Entry points
    (``__main__``) and package ``__init__`` files are not modules
    anyone is expected to import. A module kept on purpose (a test
    instrument, a seam driven end to end only by tests) is a justified
    baseline entry, not a suppression.
    """

    id = "SA205"
    name = "orphan-module"
    rationale = (
        "a repro module imported only by its own package __init__ and "
        "tests has no caller: delete it or justify it in the baseline"
    )

    def __init__(self) -> None:
        self.importers: Optional[Dict[str, Set[str]]] = None

    def begin_project(self, project: "ProjectIndex") -> None:
        self.importers = {}
        for module, targets in project.import_graph.items():
            for target in targets:
                self.importers.setdefault(target, set()).add(module)

    def applies_to(self, ctx: FileContext) -> bool:
        return (
            self.importers is not None
            and ctx.layer is not None
            and not ctx.rel_path.endswith(("/__init__.py", "/__main__.py"))
        )

    def finish_file(self, ctx: FileContext) -> Iterable[Finding]:
        assert self.importers is not None
        importers = self.importers.get(ctx.module, set()) - {ctx.module}
        callers = [
            module for module in importers
            if module.split(".")[0] != "tests"
            and not ctx.module.startswith(module + ".")  # enclosing package
        ]
        if callers:
            return
        anchor = ctx.tree.body[0] if ctx.tree.body else ctx.tree
        seen_by = ", ".join(sorted(importers)) or "nothing"
        yield self.make_finding(
            ctx, anchor,
            f"'{ctx.module}' has no caller in src/, benchmarks/ or "
            f"examples/ (imported only by: {seen_by}); delete it or "
            "justify keeping it in the baseline",
        )


def build_name_references(
    paths: Sequence[Path],
    repo_root: Path,
    parsed: Optional[Mapping[str, Tuple[str, ast.Module]]] = None,
) -> Dict[str, List[Tuple[str, int]]]:
    """``{identifier: [(rel_path, line), ...]}`` — where each name is used.

    A use is a bare name, an attribute (``obj.name``) or a string that
    is exactly one identifier (``getattr(obj, "name")``, a patch table)
    in any file under ``paths`` that is not under ``tests/``. An
    ``import`` binds a name without using it and an ``__all__`` entry
    only lists it, so neither counts — which is what makes a package
    re-export "not a caller" (SA206).
    """
    references: Dict[str, List[Tuple[str, int]]] = {}
    for rel, tree in _parsed_files(paths, repo_root, parsed):
        if rel.split("/")[0] == "tests":
            continue
        pending: List[ast.AST] = [tree]
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                    continue
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.value if isinstance(node, ast.Constant)
                else None
            )
            if isinstance(name, str) and name.isidentifier():
                references.setdefault(name, []).append((rel, node.lineno))
            pending.extend(ast.iter_child_nodes(node))
    return references


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class OrphanSymbolRule(Rule):
    """SA206 — every public ``repro.*`` symbol is used outside its tests.

    SA205 one level down: a public function, method or class whose name
    appears nowhere in ``src/``, ``benchmarks/``, ``tools/`` or
    ``examples/`` outside its own body has no caller — an import, an
    ``__all__`` entry and a test are not uses
    (:func:`build_name_references`). Name-based and one hop: any use of
    the *name* counts, whichever object it is looked up on, so an
    override of a method something calls is never reported and a
    finding always names a symbol that really has no caller. Private
    names and dunders belong to their module or to the language.
    A symbol kept on purpose (a test instrument, the query a suite
    reads results through) is a justified baseline entry.
    """

    id = "SA206"
    name = "orphan-symbol"
    rationale = (
        "a public repro function, method or class that only tests, "
        "re-exports and __all__ mention has no caller: delete it or "
        "justify it in the baseline"
    )

    def __init__(self) -> None:
        self.references: Optional[Dict[str, List[Tuple[str, int]]]] = None

    def begin_project(self, project: "ProjectIndex") -> None:
        self.references = project.name_references

    def applies_to(self, ctx: FileContext) -> bool:
        return self.references is not None and ctx.layer is not None

    def finish_file(self, ctx: FileContext) -> Iterable[Finding]:
        for stmt in ctx.tree.body:
            if not isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
                continue
            orphan = list(self._check(ctx, stmt, stmt.name))
            yield from orphan
            if isinstance(stmt, ast.ClassDef) and not orphan:
                # (an unused class is one finding, not one per method)
                for sub in stmt.body:
                    if isinstance(sub, _FUNCTIONS):
                        yield from self._check(ctx, sub, f"{stmt.name}.{sub.name}")

    def _check(self, ctx: FileContext, node: ast.stmt, label: str) -> Iterable[Finding]:
        assert self.references is not None
        if node.name.startswith("_"):
            return
        first, last = node.lineno, node.end_lineno or node.lineno
        for rel, line in self.references.get(node.name, ()):
            if rel != ctx.rel_path or not first <= line <= last:
                return
        yield self.make_finding(
            ctx, node,
            f"'{label}' is used nowhere in src/, benchmarks/, tools/ or "
            "examples/ (imports, __all__ and tests are not callers); "
            "delete it or justify keeping it in the baseline",
        )


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
