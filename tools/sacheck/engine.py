"""sacheck core: findings, file context, rule protocol, single-pass walker.

The framework is deliberately small: one recursive AST walk per file
(:class:`RuleWalker`), a :class:`FileContext` carrying everything a rule
may need (module name, layer, resolved import aliases, suppression map),
and rule classes that register handlers for the node kinds they care
about.  Rules never walk the tree themselves, so a scan stays O(nodes)
regardless of how many rules are active.

Name resolution
---------------
``FileContext.resolve(node)`` turns an AST expression into the dotted
name it refers to at module scope — ``np.random.shuffle`` becomes
``numpy.random.shuffle`` when the file did ``import numpy as np``, and a
bare ``monotonic(...)`` becomes ``time.monotonic`` after
``from time import monotonic``.  Rules match on those canonical dotted
names, which keeps every alias spelling covered by one ban list.

Suppressions
------------
A finding is suppressed when its line carries a
``# sacheck: disable=SA101`` comment (comma-separated IDs or ``all``;
trailing prose explaining *why* is encouraged and kept out of the
match).  Suppressed findings are counted but never fail a run.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: ``# sacheck: disable=SA101,SA102 -- optional justification``
SUPPRESS_RE = re.compile(r"#\s*sacheck:\s*disable=([A-Za-z0-9,\s]+?|all)(?:\s+--.*|\s*)$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative, posix separators
    line: int
    col: int
    message: str
    snippet: str  # stripped source line — the stable part of the fingerprint

    @property
    def fingerprint(self) -> str:
        """Line-number-free identity used for baseline matching.

        Including the snippet (but not the line number) keeps baseline
        entries stable while unrelated edits shift code up or down.
        """
        return f"{self.rule}:{self.path}:{self.snippet}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """``{line_number: {rule ids or "all"}}`` for every suppression comment."""
    table: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "#" not in line or "sacheck" not in line:
            continue
        match = SUPPRESS_RE.search(line)
        if not match:
            continue
        spec = match.group(1).strip()
        if spec == "all":
            table[lineno] = {"all"}
        else:
            table[lineno] = {
                code.strip().upper() for code in spec.split(",") if code.strip()
            }
    return table


class FileContext:
    """Everything rules can know about the file being scanned."""

    def __init__(self, path: Path, rel_path: str, source: str, tree: ast.Module):
        self.path = path
        self.rel_path = rel_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.module = module_name(rel_path)
        self.layer = layer_of(self.module)
        self.suppressions = parse_suppressions(source)
        #: local name -> canonical dotted origin (``np`` -> ``numpy``,
        #: ``monotonic`` -> ``time.monotonic``)
        self.aliases: Dict[str, str] = {}
        #: findings suppressed by a disable comment, for reporting
        self.suppressed: List[Finding] = []
        self._collect_aliases(tree)

    # -- alias collection ------------------------------------------------
    def _collect_aliases(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # ``import a.b.c`` binds ``a``; ``import a.b as x`` binds x->a.b
                    self.aliases[local] = alias.name if alias.asname else alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative import — resolve against this module
                    base_parts = self.module.split(".")
                    base = ".".join(base_parts[: len(base_parts) - node.level])
                    prefix = f"{base}.{node.module}" if node.module else base
                else:
                    prefix = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{prefix}.{alias.name}" if prefix else alias.name

    # -- helpers for rules ----------------------------------------------
    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name for a Name/Attribute chain, or None."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_suppressed(self, rule: str, lineno: int) -> bool:
        codes = self.suppressions.get(lineno)
        if not codes:
            return False
        return "all" in codes or rule in codes


def module_name(rel_path: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/core/config.py`` -> ``repro.core.config``;
    ``tests/unit/test_x.py`` -> ``tests.unit.test_x``.
    """
    parts = Path(rel_path).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def layer_of(module: str) -> Optional[str]:
    """Architecture layer of a ``repro.*`` module (``core``, ``sim``, ...)."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and not parts[1].startswith("__"):
        return parts[1]
    return None


class Rule:
    """Base class for sacheck rules.

    Subclasses set ``id``/``name``/``rationale`` and override any of the
    ``visit_*`` hooks; :class:`RuleWalker` calls them during its single
    pass.  ``applies_to`` filters by file before the walk starts.
    """

    id: str = "SA000"
    name: str = "unnamed"
    rationale: str = ""

    def begin_project(self, project: object) -> None:
        """Receive the phase-1 :class:`~tools.sacheck.callgraph.ProjectIndex`.

        Called once before any file is scanned, only when the caller
        built a project index (CLI scans always do; ``scan_source``
        passes one when the test asks for it).  Per-file rules ignore
        it; interprocedural rules (SA201/SA204) store it and resolve
        call edges against it.  Typed ``object`` so the engine keeps
        zero imports from :mod:`tools.sacheck.callgraph` (which imports
        this module).
        """

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    # Per-file lifecycle -------------------------------------------------
    def begin_file(self, ctx: FileContext) -> None:
        """Reset any per-file state before the walk."""

    def finish_file(self, ctx: FileContext) -> Iterable[Finding]:
        """Findings that need whole-file context (emitted after the walk)."""
        return ()

    # Node hooks (called during the single walk) -------------------------
    def visit_call(self, node: ast.Call, ctx: FileContext, walker: "RuleWalker") -> Iterable[Finding]:
        return ()

    def visit_import(self, node: ast.stmt, ctx: FileContext, walker: "RuleWalker") -> Iterable[Finding]:
        return ()

    def visit_functiondef(self, node: ast.AST, ctx: FileContext, walker: "RuleWalker") -> Iterable[Finding]:
        return ()

    def visit_compare(self, node: ast.Compare, ctx: FileContext, walker: "RuleWalker") -> Iterable[Finding]:
        return ()

    def visit_classdef(self, node: ast.ClassDef, ctx: FileContext, walker: "RuleWalker") -> Iterable[Finding]:
        return ()

    def visit_excepthandler(self, node: ast.ExceptHandler, ctx: FileContext, walker: "RuleWalker") -> Iterable[Finding]:
        return ()

    def make_finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 0)
        return Finding(
            rule=self.id,
            path=ctx.rel_path,
            line=lineno,
            col=getattr(node, "col_offset", 0),
            message=message,
            snippet=ctx.line_text(lineno),
        )


class RuleWalker:
    """One recursive pass dispatching each node to every active rule.

    Tracks context rules commonly need: whether the walk is currently
    inside an ``if TYPE_CHECKING:`` block (type-only imports are exempt
    from layering) and the function-definition nesting depth.
    """

    def __init__(self, rules: Sequence[Rule]):
        self.rules = list(rules)
        self.in_type_checking = False
        self.function_depth = 0

    def run(self, ctx: FileContext) -> List[Finding]:
        active = [rule for rule in self.rules if rule.applies_to(ctx)]
        if not active:
            return []
        for rule in active:
            rule.begin_file(ctx)
        findings: List[Finding] = []
        self.in_type_checking = False
        self.function_depth = 0
        self._walk(ctx.tree, ctx, active, findings)
        for rule in active:
            findings.extend(rule.finish_file(ctx))
        kept: List[Finding] = []
        for finding in findings:
            if ctx.is_suppressed(finding.rule, finding.line):
                ctx.suppressed.append(finding)
            else:
                kept.append(finding)
        return kept

    def _walk(
        self,
        node: ast.AST,
        ctx: FileContext,
        rules: Sequence[Rule],
        findings: List[Finding],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            entered_tc = False
            if isinstance(child, ast.If) and self._is_type_checking_test(child.test, ctx):
                entered_tc = True

            if isinstance(child, ast.Call):
                for rule in rules:
                    findings.extend(rule.visit_call(child, ctx, self))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                for rule in rules:
                    findings.extend(rule.visit_import(child, ctx, self))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for rule in rules:
                    findings.extend(rule.visit_functiondef(child, ctx, self))
            elif isinstance(child, ast.Compare):
                for rule in rules:
                    findings.extend(rule.visit_compare(child, ctx, self))
            elif isinstance(child, ast.ClassDef):
                for rule in rules:
                    findings.extend(rule.visit_classdef(child, ctx, self))
            elif isinstance(child, ast.ExceptHandler):
                for rule in rules:
                    findings.extend(rule.visit_excepthandler(child, ctx, self))

            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            if is_function:
                self.function_depth += 1
            if entered_tc:
                previous, self.in_type_checking = self.in_type_checking, True
                # only the body is type-checking-only; orelse runs at runtime
                for stmt in child.body:
                    self._dispatch_and_walk(stmt, ctx, rules, findings)
                self.in_type_checking = previous
                for stmt in child.orelse:
                    self._dispatch_and_walk(stmt, ctx, rules, findings)
            else:
                self._walk(child, ctx, rules, findings)
            if is_function:
                self.function_depth -= 1

    def _dispatch_and_walk(
        self,
        node: ast.AST,
        ctx: FileContext,
        rules: Sequence[Rule],
        findings: List[Finding],
    ) -> None:
        """Dispatch ``node`` itself, then recurse — used for If bodies
        where the statements are visited without an extra parent hop."""
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for rule in rules:
                findings.extend(rule.visit_import(node, ctx, self))
            return
        # re-use the main loop for anything non-import
        wrapper = ast.Module(body=[node], type_ignores=[])  # type: ignore[call-arg]
        self._walk(wrapper, ctx, rules, findings)

    @staticmethod
    def _is_type_checking_test(test: ast.expr, ctx: FileContext) -> bool:
        resolved = ctx.resolve(test)
        return resolved in ("typing.TYPE_CHECKING", "TYPE_CHECKING")


def scan_source(
    source: str,
    rules: Sequence[Rule],
    rel_path: str = "snippet.py",
    path: Optional[Path] = None,
    project: Optional[object] = None,
) -> Tuple[List[Finding], FileContext]:
    """Scan one source string — the unit-test entry point.

    Pass ``project`` (a :class:`~tools.sacheck.callgraph.ProjectIndex`,
    typically built via ``ProjectIndex.from_source``) to exercise the
    interprocedural rules; without it they deactivate themselves.
    """
    tree = ast.parse(source, filename=rel_path)
    ctx = FileContext(path or Path(rel_path), rel_path, source, tree)
    if project is not None:
        for rule in rules:
            rule.begin_project(project)
    walker = RuleWalker(rules)
    return walker.run(ctx), ctx


@dataclass
class ScanResult:
    """Aggregate outcome of scanning a set of files."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)


def relative_path(path: Path, repo_root: Path) -> str:
    """Repo-relative posix path; absolute posix for paths outside the repo."""
    try:
        return path.relative_to(repo_root).as_posix()
    except ValueError:
        return path.as_posix()


def iter_python_files(paths: Sequence[Path], repo_root: Path) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
    # stable order, repo-relative
    return sorted(set(files), key=lambda p: relative_path(p, repo_root))


def scan_paths(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    repo_root: Path,
    project: Optional[object] = None,
) -> ScanResult:
    """Scan every ``*.py`` under ``paths`` with one walker pass per file.

    ``project`` is the phase-1 index; when present its parsed-file
    cache is reused (each file is read and parsed exactly once per
    run) and interprocedural rules are activated via
    :meth:`Rule.begin_project`.  The index may cover *more* files than
    ``paths`` — that is how an explicit-path scan covers a subset
    with whole-program resolution.
    """
    result = ScanResult()
    if project is not None:
        for rule in rules:
            rule.begin_project(project)
    cached_files = getattr(project, "files", {}) or {}
    walker = RuleWalker(rules)
    for file_path in iter_python_files(paths, repo_root):
        rel = relative_path(file_path, repo_root)
        cached = cached_files.get(rel)
        try:
            if cached is not None:
                source, tree = cached
            else:
                source = file_path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=rel)
        except (SyntaxError, UnicodeDecodeError) as exc:
            result.parse_errors.append(f"{rel}: {exc}")
            continue
        ctx = FileContext(file_path, rel, source, tree)
        result.findings.extend(walker.run(ctx))
        result.suppressed.extend(ctx.suppressed)
        result.files_checked += 1
    return result
