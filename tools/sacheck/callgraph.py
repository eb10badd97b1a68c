"""Phase 1 of sacheck v2: project-wide symbol table and call graph.

The per-file rules (SA101–SA108) see one file at a time; the v2 rule
families (SA201 effect propagation, SA204 shard safety) need to know
*who calls whom across the whole program*. This module builds that
view in one pass over every scanned file:

* a **symbol table** — every module with its import aliases, its
  module-level names (for shard-safety global checks), its classes and
  their methods, and every function/method as a :class:`FunctionInfo`
  keyed by dotted qualname (``repro.sim.cluster.Cluster.migrate``);

* a **call graph** — for each function, the calls its body makes,
  resolved as far as static analysis honestly can: bare names through
  the import-alias table, ``self.m()`` to the enclosing class,
  ``obj.m()`` through a tiny local type environment that tracks
  *known types* (project classes instantiated in the same function,
  seeded RNGs from ``np.random.default_rng(...)`` / ``random.Random``,
  parameters annotated ``Generator``/``Random``). Calls that cannot be
  bound stay unresolved — the analysis under-approximates rather than
  guess, so downstream rules never flag on a fabricated edge;

* **direct effects** — call sites that consume RNG state (draws on an
  RNG-typed or rng-named receiver) or advance simulation state
  (``.demand()`` / ``.advance()`` / ``.step()`` / ``.begin_tick()``
  protocol methods, known state-advancers like ``Cluster.migrate``).
  :meth:`ProjectIndex.impurity` propagates these transitively through
  the resolved call edges to a fixpoint, giving every function its
  effect set — the lattice SA201 checks read-only contexts against.

Everything here is plain ``ast``; no imports are executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from tools.sacheck.engine import (
    FileContext,
    iter_python_files,
    relative_path,
)
from tools.sacheck.layering import build_import_graph, build_name_references

#: Seeded RNG constructors — a variable assigned from one is RNG-typed.
RNG_FACTORIES = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "random.Random",
}

#: Annotation spellings that mark a parameter as RNG-typed.
RNG_ANNOTATIONS = {
    "Generator",
    "np.random.Generator",
    "numpy.random.Generator",
    "random.Random",
    "Random",
    "RandomState",
}

#: Methods that draw from (and therefore advance) an RNG stream.
RNG_DRAW_METHODS = {
    "random", "normal", "standard_normal", "uniform", "integers",
    "choice", "shuffle", "permutation", "exponential", "poisson",
    "gamma", "beta", "binomial", "lognormal", "rayleigh", "triangular",
    "randint", "gauss", "sample", "randrange", "betavariate",
    "expovariate", "gammavariate", "normalvariate", "vonmisesvariate",
}

#: Receiver spellings that mark an attribute chain as an RNG even when
#: its type cannot be traced (``self._rng``, ``cfg.rng`` …).
RNG_NAME_HINTS = ("rng", "random_state")

#: Protocol methods that advance simulation/application state when
#: called: ``app.demand()`` consumes the app's private jitter RNG,
#: ``advance``/``step``/``begin_tick`` move the world forward.
STATE_ADVANCING_METHODS = {"demand", "advance", "step", "begin_tick"}

#: Attribute methods that mutate the object they are called on — used
#: by the shard-safety check to spot mutation of module-level state.
MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "add",
    "discard", "update", "setdefault", "popitem", "sort", "reverse",
}

#: Effect tags (the lattice points of the effect analysis).
EFFECT_RNG = "rng-draw"
EFFECT_STATE = "state-advance"


@dataclass
class CallSite:
    """One call made from inside a function body."""

    node: ast.Call
    display: str  #: how the call is spelled (``self.app.demand``)
    target: Optional[str] = None  #: resolved project qualname, if any
    method: Optional[str] = None  #: attribute method name, if any


@dataclass
class EffectSite:
    """One direct effect source inside a function body."""

    node: ast.AST
    tag: str  #: :data:`EFFECT_RNG` or :data:`EFFECT_STATE`
    display: str


@dataclass
class FunctionInfo:
    """Everything phase 2 needs to know about one function/method."""

    qualname: str
    module: str
    cls: Optional[str]
    name: str
    rel_path: str
    lineno: int
    node: ast.AST
    call_sites: List[CallSite] = field(default_factory=list)
    effect_sites: List[EffectSite] = field(default_factory=list)
    #: ``(lineno, description)`` of module-global / closure mutations.
    global_mutations: List[Tuple[int, str]] = field(default_factory=list)


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    methods: Dict[str, str] = field(default_factory=dict)  #: name -> fn qualname


@dataclass
class ModuleInfo:
    module: str
    rel_path: str
    #: module-level names bound by assignment (shard-safety globals).
    global_names: Set[str] = field(default_factory=set)
    classes: Dict[str, str] = field(default_factory=dict)  #: name -> cls qualname
    functions: Dict[str, str] = field(default_factory=dict)  #: name -> fn qualname


def _display(node: ast.expr) -> str:
    """Best-effort source spelling of a call target expression."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<call>"


def _attribute_chain_tail(node: ast.expr) -> Optional[str]:
    """Last identifier of a Name/Attribute receiver chain, lowered."""
    if isinstance(node, ast.Attribute):
        return node.attr.lower()
    if isinstance(node, ast.Name):
        return node.id.lower()
    return None


def _is_rng_named(node: ast.expr) -> bool:
    tail = _attribute_chain_tail(node)
    if tail is None:
        return False
    return any(hint in tail for hint in RNG_NAME_HINTS)


class _FunctionScanner(ast.NodeVisitor):
    """Collects call sites, effects and global mutations for one function.

    Maintains a tiny flow-insensitive type environment: ``{local name:
    "rng" | class qualname}``. Nested defs/lambdas are scanned as part
    of the enclosing function (their effects belong to whoever defines
    and typically invokes them), except that their parameters shadow
    nothing we track.
    """

    def __init__(
        self,
        info: FunctionInfo,
        ctx: FileContext,
        project: "ProjectIndex",
    ) -> None:
        self.info = info
        self.ctx = ctx
        self.project = project
        self.env: Dict[str, str] = {}
        self.declared_globals: Set[str] = set()
        self.declared_nonlocals: Set[str] = set()
        self._seed_parameter_types(info.node)
        if info.cls is not None:
            self.env["self"] = f"{info.module}.{info.cls}"

    # -- environment seeding --------------------------------------------
    def _seed_parameter_types(self, node: ast.AST) -> None:
        args = getattr(node, "args", None)
        if args is None:
            return
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.annotation is None:
                continue
            try:
                spelled = ast.unparse(arg.annotation).strip("'\"")
            except Exception:  # pragma: no cover
                continue
            spelled = spelled.replace("Optional[", "").rstrip("]")
            if spelled in RNG_ANNOTATIONS:
                self.env[arg.arg] = "rng"

    # -- type environment updates ---------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self._bind_targets(node.targets, node.value)
        self.generic_visit(node)
        self._record_store_mutations(node.targets, node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind_targets([node.target], node.value)
            self._record_store_mutations([node.target], node)
        self.generic_visit(node)

    def _bind_targets(self, targets: Sequence[ast.expr], value: ast.expr) -> None:
        inferred = self._infer_type(value)
        for target in targets:
            if isinstance(target, ast.Name):
                if inferred is None:
                    self.env.pop(target.id, None)
                else:
                    self.env[target.id] = inferred

    def _infer_type(self, value: ast.expr) -> Optional[str]:
        """``"rng"`` | project class qualname | None for an expression."""
        if isinstance(value, ast.Call):
            resolved = self.ctx.resolve(value.func)
            if resolved in RNG_FACTORIES:
                return "rng"
            cls = self.project.resolve_class(resolved, self.info.module)
            if cls is not None:
                return cls.qualname
        return None

    # -- scope declarations (shard safety) -------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        self.declared_globals.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.declared_nonlocals.update(node.names)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.generic_visit(node)
        self._record_store_mutations([node.target], node)

    def _record_store_mutations(self, targets: Sequence[ast.expr], stmt: ast.AST) -> None:
        """Writes to declared globals/nonlocals or module-level containers."""
        for target in targets:
            base = target
            subscripted = False
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                subscripted = True
                base = base.value
            if not isinstance(base, ast.Name):
                continue
            name = base.id
            if name in self.declared_globals or name in self.declared_nonlocals:
                scope = "global" if name in self.declared_globals else "closed-over"
                self.info.global_mutations.append(
                    (stmt.lineno, f"writes {scope} name '{name}'")
                )
            elif subscripted and self._is_module_global(name):
                self.info.global_mutations.append(
                    (stmt.lineno, f"mutates module-level '{name}' in place")
                )

    def _is_module_global(self, name: str) -> bool:
        mod = self.project.modules.get(self.info.module)
        if mod is None or name in self.env:
            return False
        return name in mod.global_names

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        display = _display(func)
        target: Optional[str] = None
        method: Optional[str] = None

        if isinstance(func, ast.Name):
            target = self._resolve_name_call(func.id)
        elif isinstance(func, ast.Attribute):
            method = func.attr
            target = self._resolve_attribute_call(func)

        site = CallSite(node=node, display=display, target=target, method=method)
        self.info.call_sites.append(site)
        self._record_effects(site, func)
        self._record_call_mutations(site, func, node)
        self.generic_visit(node)

    def _resolve_name_call(self, name: str) -> Optional[str]:
        resolved = self.ctx.aliases.get(name)
        if resolved is not None:
            fn = self.project.functions.get(resolved)
            if fn is not None:
                return fn.qualname
        mod = self.project.modules.get(self.info.module)
        if mod is not None and name in mod.functions:
            return mod.functions[name]
        return None

    def _resolve_attribute_call(self, func: ast.Attribute) -> Optional[str]:
        receiver = func.value
        # Receiver with a known local type (``self``, project instances).
        if isinstance(receiver, ast.Name):
            typed = self.env.get(receiver.id)
            if typed is not None and typed != "rng":
                return self._method_of(typed, func.attr)
        # Chained constructor call: ``SimulationEngine(...).run(...)``.
        if isinstance(receiver, ast.Call):
            inferred = self._infer_type(receiver)
            if inferred is not None and inferred != "rng":
                return self._method_of(inferred, func.attr)
        # Fully dotted spellings: module.func / module.Class.method.
        resolved = self.ctx.resolve(func)
        if resolved is not None:
            fn = self.project.functions.get(resolved)
            if fn is not None:
                return fn.qualname
        return None

    def _method_of(self, cls_qualname: str, method: str) -> Optional[str]:
        cls = self.project.classes.get(cls_qualname)
        if cls is not None:
            return cls.methods.get(method)
        return None

    # -- effects ---------------------------------------------------------
    def _receiver_is_rng(self, func: ast.Attribute) -> bool:
        receiver = func.value
        if isinstance(receiver, ast.Name) and self.env.get(receiver.id) == "rng":
            return True
        if isinstance(receiver, ast.Call) and self._infer_type(receiver) == "rng":
            return True
        return _is_rng_named(receiver)

    def _record_effects(self, site: CallSite, func: ast.expr) -> None:
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in RNG_DRAW_METHODS and self._receiver_is_rng(func):
            self.info.effect_sites.append(
                EffectSite(node=site.node, tag=EFFECT_RNG, display=site.display)
            )
        elif func.attr in STATE_ADVANCING_METHODS:
            self.info.effect_sites.append(
                EffectSite(node=site.node, tag=EFFECT_STATE, display=site.display)
            )

    def _record_call_mutations(
        self, site: CallSite, func: ast.expr, node: ast.Call
    ) -> None:
        """``MODULE_LEVEL.append(...)``-style in-place mutation calls."""
        if not isinstance(func, ast.Attribute) or func.attr not in MUTATING_METHODS:
            return
        base = func.value
        while isinstance(base, (ast.Subscript, ast.Attribute)):
            base = base.value
        if isinstance(base, ast.Name) and self._is_module_global(base.id):
            self.info.global_mutations.append(
                (node.lineno, f"calls {site.display}() on module-level state")
            )

    # Nested function definitions: scan their bodies as part of this
    # function (closures execute in our dynamic extent), but do not
    # recurse through the arguments' default expressions twice.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for stmt in node.body:
            self.visit(stmt)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


class ProjectIndex:
    """Symbol table + call graph + effect lattice for a set of files."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: parsed files, reusable by phase 2: rel_path -> (source, tree)
        self.files: Dict[str, Tuple[str, ast.Module]] = {}
        #: module -> imported ``repro`` modules (SA205's input)
        self.import_graph: Dict[str, Set[str]] = {}
        #: identifier -> where non-test code uses it (SA206's input)
        self.name_references: Dict[str, List[Tuple[str, int]]] = {}
        self._impurity: Optional[Dict[str, Set[str]]] = None

    # -- construction ----------------------------------------------------
    @classmethod
    def build(
        cls,
        paths: Sequence[Path],
        repo_root: Path,
        import_only: Sequence[Path] = (),
    ) -> "ProjectIndex":
        """Index every ``*.py`` under ``paths`` (two passes, no exec).

        Files under ``import_only`` contribute edges to
        :attr:`import_graph` and uses to :attr:`name_references` and
        nothing else: a benchmark counts as a caller without being
        indexed or rule-walked itself.
        """
        project = cls()
        contexts: List[FileContext] = []
        for file_path in iter_python_files(paths, repo_root):
            rel = relative_path(file_path, repo_root)
            if rel in project.files:
                continue
            try:
                source = file_path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=rel)
            except (SyntaxError, UnicodeDecodeError):
                continue  # scan_paths reports parse errors; skip here
            project.files[rel] = (source, tree)
            ctx = FileContext(file_path, rel, source, tree)
            contexts.append(ctx)
            project._collect_symbols(ctx)
        # Second pass needs the full symbol table for cross-module
        # call resolution, so it runs after every module is known.
        for ctx in contexts:
            project._collect_bodies(ctx)
        project.import_graph = build_import_graph(
            [*paths, *import_only], repo_root, parsed=project.files
        )
        project.name_references = build_name_references(
            [*paths, *import_only], repo_root, parsed=project.files
        )
        return project

    @classmethod
    def from_source(
        cls, source: str, rel_path: str = "snippet.py"
    ) -> "ProjectIndex":
        """Single-file index — the unit-test entry point."""
        project = cls()
        tree = ast.parse(source, filename=rel_path)
        project.files[rel_path] = (source, tree)
        ctx = FileContext(Path(rel_path), rel_path, source, tree)
        project._collect_symbols(ctx)
        project._collect_bodies(ctx)
        return project

    def _collect_symbols(self, ctx: FileContext) -> None:
        mod = ModuleInfo(module=ctx.module, rel_path=ctx.rel_path)
        self.modules[ctx.module] = mod
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{ctx.module}.{stmt.name}"
                mod.functions[stmt.name] = qual
                self.functions[qual] = FunctionInfo(
                    qualname=qual, module=ctx.module, cls=None, name=stmt.name,
                    rel_path=ctx.rel_path, lineno=stmt.lineno, node=stmt,
                )
            elif isinstance(stmt, ast.ClassDef):
                cls_qual = f"{ctx.module}.{stmt.name}"
                cls_info = ClassInfo(
                    qualname=cls_qual, module=ctx.module, name=stmt.name
                )
                mod.classes[stmt.name] = cls_qual
                self.classes[cls_qual] = cls_info
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn_qual = f"{cls_qual}.{sub.name}"
                        cls_info.methods[sub.name] = fn_qual
                        self.functions[fn_qual] = FunctionInfo(
                            qualname=fn_qual, module=ctx.module, cls=stmt.name,
                            name=sub.name, rel_path=ctx.rel_path,
                            lineno=sub.lineno, node=sub,
                        )
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        mod.global_names.add(target.id)

    def _collect_bodies(self, ctx: FileContext) -> None:
        for info in self.functions.values():
            if info.rel_path != ctx.rel_path:
                continue
            scanner = _FunctionScanner(info, ctx, self)
            for stmt in info.node.body:  # type: ignore[attr-defined]
                scanner.visit(stmt)

    # -- lookups ---------------------------------------------------------
    def resolve_class(
        self, resolved: Optional[str], current_module: str
    ) -> Optional[ClassInfo]:
        """ClassInfo for a dotted name (project classes only)."""
        if resolved is None:
            return None
        cls = self.classes.get(resolved)
        if cls is not None:
            return cls
        mod = self.modules.get(current_module)
        if mod is not None and resolved in mod.classes:
            return self.classes.get(mod.classes[resolved])
        return None

    # -- effect propagation ---------------------------------------------
    def impurity(self) -> Dict[str, Set[str]]:
        """``{qualname: effect tags}`` — transitive over resolved edges.

        A function is tagged with every effect its body triggers
        directly plus every effect of every resolved callee, computed
        as a reverse-BFS fixpoint. Unresolved calls contribute nothing
        (under-approximation, by design).
        """
        if self._impurity is not None:
            return self._impurity
        effects: Dict[str, Set[str]] = {
            qual: {site.tag for site in info.effect_sites}
            for qual, info in self.functions.items()
        }
        callers: Dict[str, List[str]] = {}
        for qual, info in self.functions.items():
            for site in info.call_sites:
                if site.target is not None:
                    callers.setdefault(site.target, []).append(qual)
        worklist = [qual for qual, tags in effects.items() if tags]
        while worklist:
            current = worklist.pop()
            tags = effects[current]
            for caller in callers.get(current, ()):
                before = len(effects[caller])
                effects[caller] |= tags
                if len(effects[caller]) != before:
                    worklist.append(caller)
        self._impurity = effects
        return effects

    def function_effects(self, qualname: str) -> Set[str]:
        return self.impurity().get(qualname, set())

    def transitive_global_mutations(
        self, qualname: str
    ) -> List[Tuple[str, int, str]]:
        """``(function, lineno, description)`` over the callee closure."""
        seen: Set[str] = set()
        found: List[Tuple[str, int, str]] = []
        stack = [qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.functions.get(current)
            if info is None:
                continue
            for lineno, desc in info.global_mutations:
                found.append((current, lineno, desc))
            for site in info.call_sites:
                if site.target is not None and site.target not in seen:
                    stack.append(site.target)
        return found
