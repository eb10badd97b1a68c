"""Phase 2 rules on the call graph: SA201, SA202, SA204.

These are the determinism rules that PR 7's equivalence testing could
only find by brute force — paired A/B runs desyncing because something
*read-only* (a sizing estimate, an eviction picker, a stats path)
consumed RNG or simulation state as a side effect of being asked a
question. Each rule here works on the :class:`ProjectIndex` built in
phase 1 (:mod:`tools.sacheck.callgraph`):

* **SA201 no-impure-read-paths** — a function whose *name* promises a
  read-only answer (``summary``, ``*_stats``, ``*_victim``,
  ``*_estimate``, ``score*``, …) must not reach an RNG draw or a
  state-advancing call (``.demand()`` / ``.advance()`` / ``.step()``),
  directly or through any resolved call chain. Separately, the
  once-per-tick application probe ``.demand()`` may only be called
  from the tick path itself (functions named ``demand`` /
  ``gather_demands``) — an off-tick probe advances the app's private
  jitter RNG and desyncs otherwise-identical runs, which is exactly
  the ``Cluster.migrate`` bug PR 7 fixed.

* **SA202 order-stable-folds** — numeric accumulation (``+=`` loops,
  ``sum()``/``reduce`` folds) iterating a ``set``/``frozenset`` (or a
  dict built from one via ``dict.fromkeys``) in ``repro.sim`` /
  ``repro.core`` / ``repro.mds``. Set iteration order follows string
  hashing, so float folds over sets differ in the last ulp between
  ``PYTHONHASHSEED`` values — the water-fill bug PR 7 fixed. Plain
  dicts are insertion-ordered in Python ≥ 3.7 and stay allowed;
  ``sorted(...)`` around the iterable is the sanctioned fix and is
  recognized as such.

* **SA204 shard-safety** — a function handed to a multiprocessing
  dispatch site (``pool.map``/``starmap``/``apply_async``/``submit``,
  ``Process(target=...)``) must not write module globals or
  closed-over names, directly or transitively: each worker process
  mutates its *own copy*, so the write silently diverges from the
  parent.

All three under-approximate: an unresolved call contributes nothing,
so every finding is anchored to an edge the analyzer actually proved.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional, Set

from tools.sacheck.callgraph import EFFECT_RNG, FunctionInfo, ProjectIndex
from tools.sacheck.engine import FileContext, Finding, Rule, RuleWalker

#: Layers whose float folds must be order-stable (SA202).
FOLD_LAYERS = {"sim", "core", "mds"}


def _read_only_name(name: str) -> bool:
    """Does this function name promise a read-only answer?"""
    if name in SA201EffectRule.READ_ONLY_EXACT:
        return True
    if name.endswith(SA201EffectRule.READ_ONLY_SUFFIXES):
        return True
    stripped = name.lstrip("_")
    return stripped.startswith(SA201EffectRule.READ_ONLY_PREFIXES)


class SA201EffectRule(Rule):
    """SA201 — effect propagation: no impure calls on read-only paths."""

    id = "SA201"
    name = "no-impure-read-paths"
    rationale = (
        "read-only contexts (summary/stats/scoring/sizing/pickers) must "
        "not consume RNG or advance simulation state — off-tick "
        "demand()/step() probes desync paired runs"
    )

    #: Function names that are read-only contexts outright.
    READ_ONLY_EXACT = frozenset({"summary", "stats", "describe"})
    #: ... by suffix (``usage_snapshot``, ``_eviction_victim``, ...).
    READ_ONLY_SUFFIXES = (
        "_stats", "_summary", "_snapshot", "_victim", "_score",
        "_scores", "_estimate", "_sizes",
    )
    #: ... by prefix after stripping leading underscores.
    READ_ONLY_PREFIXES = (
        "score", "estimate", "pick_", "choose_", "select_", "size_",
    )

    #: The only function names allowed to call the once-per-tick
    #: application probe ``.demand()`` (the tick path itself).
    SANCTIONED_DEMAND_CALLERS = frozenset({"demand", "gather_demands"})

    def __init__(self) -> None:
        self.project: Optional[ProjectIndex] = None

    def begin_project(self, project: ProjectIndex) -> None:
        self.project = project

    def applies_to(self, ctx: FileContext) -> bool:
        return self.project is not None and ctx.module.startswith("repro.")

    def finish_file(self, ctx: FileContext) -> Iterable[Finding]:
        assert self.project is not None
        impurity = self.project.impurity()
        for info in self.project.functions.values():
            if info.rel_path != ctx.rel_path:
                continue
            yield from self._check_function(ctx, info, impurity)

    def _check_function(
        self, ctx: FileContext, info: FunctionInfo, impurity: Dict[str, Set[str]]
    ) -> Iterable[Finding]:
        read_only = _read_only_name(info.name)
        flagged_nodes: Set[int] = set()

        if read_only:
            # Direct effect sources inside the read-only body.
            for site in info.effect_sites:
                if id(site.node) in flagged_nodes:
                    continue
                flagged_nodes.add(id(site.node))
                kind = "RNG draw" if site.tag == EFFECT_RNG else "state-advancing call"
                yield self.make_finding(
                    ctx, site.node,
                    f"{kind} {site.display}() inside read-only context "
                    f"'{info.name}'; read cached state instead of probing",
                )
            # Resolved calls to transitively impure project functions.
            for call in info.call_sites:
                if call.target is None or id(call.node) in flagged_nodes:
                    continue
                tags = impurity.get(call.target, set())
                if tags:
                    flagged_nodes.add(id(call.node))
                    yield self.make_finding(
                        ctx, call.node,
                        f"call {call.display}() inside read-only context "
                        f"'{info.name}' transitively reaches "
                        f"{'/'.join(sorted(tags))} (via {call.target})",
                    )

        if info.name not in self.SANCTIONED_DEMAND_CALLERS:
            # Off-tick demand probes anywhere, read-only-named or not:
            # Cluster.migrate sizing the copy from app.demand() was
            # the PR 7 bug class this clause re-detects.
            for call in info.call_sites:
                if call.method == "demand" and id(call.node) not in flagged_nodes:
                    flagged_nodes.add(id(call.node))
                    yield self.make_finding(
                        ctx, call.node,
                        f"off-tick application probe {call.display}() in "
                        f"'{info.name}'; demand() advances the app's private "
                        "RNG — sample it only from the tick path "
                        "(demand/gather_demands) or use last_allocation",
                    )


class SA202OrderStableFoldRule(Rule):
    """SA202 — numeric folds must not iterate hash-ordered collections."""

    id = "SA202"
    name = "order-stable-folds"
    rationale = (
        "float accumulation over a set follows string-hash order, making "
        "results PYTHONHASHSEED-dependent in the last ulp; iterate a "
        "list/sorted() view instead"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.layer in FOLD_LAYERS

    def visit_functiondef(
        self, node: ast.AST, ctx: FileContext, walker: RuleWalker
    ) -> Iterable[Finding]:
        if isinstance(node, ast.Lambda):
            return
        set_locals = self._collect_set_locals(node)
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not node:
                continue  # nested defs get their own visit
            if isinstance(sub, ast.For):
                yield from self._check_loop(sub, set_locals, ctx)
            elif isinstance(sub, ast.Call):
                yield from self._check_fold_call(sub, set_locals, ctx)

    # -- set-typed local inference ---------------------------------------
    def _collect_set_locals(self, node: ast.AST) -> Set[str]:
        """Local names provably bound to a set/frozenset (or set-built dict)."""
        names: Set[str] = set()
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Assign):
                continue
            if self._is_set_expr(sub.value, names):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    def _is_set_expr(self, expr: ast.expr, set_locals: Set[str]) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            # dict.fromkeys(<set>) inherits the set's hash order.
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "fromkeys"
                and isinstance(func.value, ast.Name)
                and func.value.id == "dict"
                and expr.args
                and self._is_set_expr(expr.args[0], set_locals)
            ):
                return True
        if isinstance(expr, ast.Name):
            return expr.id in set_locals
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitAnd, ast.BitOr, ast.Sub)
        ):
            # set algebra (a & b, a | b, a - b) stays a set
            return self._is_set_expr(expr.left, set_locals) or self._is_set_expr(
                expr.right, set_locals
            )
        return False

    def _iterates_set(self, iter_expr: ast.expr, set_locals: Set[str]) -> bool:
        """True when the loop/fold iterable is hash-ordered."""
        # sorted(...) / list(sorted(...)) around the set is the fix.
        if isinstance(iter_expr, ast.Call):
            func = iter_expr.func
            if isinstance(func, ast.Name) and func.id == "sorted":
                return False
            # d.keys()/.values()/.items() of a set-derived dict
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("keys", "values", "items")
                and isinstance(func.value, ast.Name)
            ):
                return func.value.id in set_locals
        return self._is_set_expr(iter_expr, set_locals)

    # -- fold detection ---------------------------------------------------
    @staticmethod
    def _has_numeric_accumulation(loop: ast.For) -> bool:
        for sub in ast.walk(loop):
            if isinstance(sub, ast.AugAssign) and isinstance(
                sub.op, (ast.Add, ast.Sub, ast.Mult)
            ):
                return True
        return False

    def _check_loop(
        self, loop: ast.For, set_locals: Set[str], ctx: FileContext
    ) -> Iterable[Finding]:
        if self._iterates_set(loop.iter, set_locals) and self._has_numeric_accumulation(loop):
            yield self.make_finding(
                ctx, loop,
                "numeric accumulation loop iterates a set (hash order); "
                "results depend on PYTHONHASHSEED — iterate a list or "
                "sorted(...) view instead",
            )

    def _check_fold_call(
        self, call: ast.Call, set_locals: Set[str], ctx: FileContext
    ) -> Iterable[Finding]:
        func = call.func
        is_sum = isinstance(func, ast.Name) and func.id == "sum"
        is_reduce = (
            isinstance(func, ast.Attribute) and func.attr == "reduce"
        ) or (isinstance(func, ast.Name) and func.id == "reduce")
        if not (is_sum or is_reduce) or not call.args:
            return
        fold_arg = call.args[-1] if is_reduce else call.args[0]
        if isinstance(fold_arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            iterable = fold_arg.generators[0].iter
        else:
            iterable = fold_arg
        if self._iterates_set(iterable, set_locals):
            kind = "sum()" if is_sum else "reduce()"
            yield self.make_finding(
                ctx, call,
                f"{kind} folds a set (hash order); float results depend on "
                "PYTHONHASHSEED — fold a list or sorted(...) view instead",
            )


class SA204ShardSafetyRule(Rule):
    """SA204 — multiprocessing workers must not mutate shared scope."""

    id = "SA204"
    name = "shard-safety"
    rationale = (
        "a function dispatched to a worker process mutates its own copy "
        "of module globals/closures — writes silently diverge from the "
        "parent; workers must communicate through return values"
    )

    #: Attribute methods that hand a callable to worker processes.
    DISPATCH_METHODS = frozenset({
        "map", "starmap", "imap", "imap_unordered", "apply", "apply_async",
        "map_async", "starmap_async", "submit",
    })
    #: Receiver-name hints that make an attribute dispatch credible.
    RECEIVER_HINTS = ("pool", "executor")

    def __init__(self) -> None:
        self.project: Optional[ProjectIndex] = None

    def begin_project(self, project: ProjectIndex) -> None:
        self.project = project

    def applies_to(self, ctx: FileContext) -> bool:
        return self.project is not None and ctx.module.startswith("repro.")

    def visit_call(
        self, node: ast.Call, ctx: FileContext, walker: RuleWalker
    ) -> Iterable[Finding]:
        worker_expr = self._dispatched_worker(node, ctx)
        if worker_expr is None:
            return
        assert self.project is not None
        target = self._resolve_worker(worker_expr, ctx)
        if target is None:
            return
        mutations = self.project.transitive_global_mutations(target)
        for qualname, lineno, desc in mutations:
            yield self.make_finding(
                ctx, node,
                f"worker {target}() dispatched to a process pool {desc} "
                f"({qualname}:{lineno}); worker processes mutate their own "
                "copy — return the data instead",
            )

    def _dispatched_worker(
        self, node: ast.Call, ctx: FileContext
    ) -> Optional[ast.expr]:
        func = node.func
        resolved = ctx.resolve(func)
        # Process(target=...) / ctx.Process(target=...)
        if (
            resolved in ("multiprocessing.Process", "threading.Thread")
            or (isinstance(func, ast.Attribute) and func.attr == "Process")
        ):
            for keyword in node.keywords:
                if keyword.arg == "target":
                    return keyword.value
            return None
        # pool.map(worker, ...) and friends
        if isinstance(func, ast.Attribute) and func.attr in self.DISPATCH_METHODS:
            receiver_tail = (
                func.value.attr if isinstance(func.value, ast.Attribute)
                else func.value.id if isinstance(func.value, ast.Name)
                else ""
            ).lower()
            if any(hint in receiver_tail for hint in self.RECEIVER_HINTS):
                return node.args[0] if node.args else None
        return None

    def _resolve_worker(
        self, expr: ast.expr, ctx: FileContext
    ) -> Optional[str]:
        assert self.project is not None
        if isinstance(expr, ast.Name):
            dotted = ctx.aliases.get(expr.id)
            if dotted is not None and dotted in self.project.functions:
                return dotted
            mod = self.project.modules.get(ctx.module)
            if mod is not None and expr.id in mod.functions:
                return mod.functions[expr.id]
            return None
        dotted = ctx.resolve(expr)
        if dotted is not None and dotted in self.project.functions:
            return dotted
        return None
