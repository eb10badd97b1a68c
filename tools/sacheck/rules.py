"""The Stay-Away invariant rules (SA101–SA108).

Each rule encodes an invariant of the reproduction that the test suite
cannot see directly — determinism of the controller (SA101/SA102),
architectural layering (SA103, in :mod:`tools.sacheck.layering`),
Python footguns that corrupt learned state (SA104), numerical safety
(SA105), telemetry discipline (SA106), config auditability (SA107) and
exception-handling discipline (SA108).  ``docs/STATIC_ANALYSIS.md``
ties every rule back to the paper section or design document it
protects.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set

from tools.sacheck.engine import FileContext, Finding, Rule, RuleWalker

#: Layers whose behaviour must be replayable from an injected clock/RNG.
DETERMINISTIC_LAYERS = {"core", "mds", "trajectory", "telemetry"}

#: Layers doing [0,1]-normalized float math where ``==`` is a hazard.
NUMERICAL_LAYERS = {"core", "mds", "trajectory", "monitoring", "analysis"}


class WallClockRule(Rule):
    """SA101 — no wall-clock *calls* in deterministic layers.

    The controller, mapping/MDS stack and telemetry must be replayable:
    restarts from a map template, the pinned decision digests
    (``tests/integration/test_pinned_digests.py``) and trace assertions
    (``tests/unit/test_telemetry.py``) assume time only advances through
    the injected clock.  Storing ``time.perf_counter`` as an injectable
    *default* is the sanctioned pattern and is not a call, so it passes.
    """

    id = "SA101"
    name = "no-wall-clock"
    rationale = (
        "deterministic layers must read time through the injected clock "
        "(sim/clock.py, Telemetry(clock=...)), never the OS"
    )

    BANNED = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.layer in DETERMINISTIC_LAYERS

    def visit_call(self, node: ast.Call, ctx: FileContext, walker: RuleWalker) -> Iterable[Finding]:
        resolved = ctx.resolve(node.func)
        if resolved in self.BANNED:
            yield self.make_finding(
                ctx, node, f"wall-clock call {resolved}() in deterministic layer "
                f"'{ctx.layer}'; thread the injected clock through instead"
            )


class GlobalRngRule(Rule):
    """SA102 — no module-level RNG; randomness flows from seeded Generators.

    Every stochastic component takes a seed (``StayAwayConfig.seed``,
    per-fault seeds in ``sim/faults.py``) and builds a
    ``numpy.random.default_rng``; calling the global ``random.*`` /
    ``np.random.*`` functions would make runs unreproducible and
    experiments unpaired.
    """

    id = "SA102"
    name = "no-global-rng"
    rationale = (
        "randomness must come from a seeded numpy Generator so every "
        "run, test and benchmark is replayable"
    )

    #: Constructors/types under numpy.random that are fine to touch.
    NUMPY_ALLOWED = {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
        "RandomState",  # explicit legacy object is still seeded, not global
    }
    STDLIB_ALLOWED = {"random.Random", "random.SystemRandom", "random.getstate"}

    def visit_call(self, node: ast.Call, ctx: FileContext, walker: RuleWalker) -> Iterable[Finding]:
        resolved = ctx.resolve(node.func)
        if resolved is None:
            return
        if resolved.startswith("numpy.random."):
            tail = resolved.split(".")[2]
            if tail not in self.NUMPY_ALLOWED:
                yield self.make_finding(
                    ctx, node,
                    f"global numpy RNG call {resolved}(); draw from a seeded "
                    "np.random.Generator threaded in from config instead",
                )
        elif resolved.startswith("random.") and resolved not in self.STDLIB_ALLOWED:
            yield self.make_finding(
                ctx, node,
                f"global stdlib RNG call {resolved}(); use a seeded "
                "numpy Generator (or random.Random(seed)) instead",
            )


class MutableDefaultRule(Rule):
    """SA104 — no mutable default arguments.

    Shared mutable defaults have already bitten similar controllers:
    a list default on a scenario builder aliases state across
    experiment repetitions and silently un-pairs A/B runs.
    """

    id = "SA104"
    name = "no-mutable-defaults"
    rationale = "mutable defaults alias state across calls and runs"

    MUTABLE_CALLS = {"list", "dict", "set", "collections.defaultdict", "collections.deque"}

    def visit_functiondef(self, node: ast.AST, ctx: FileContext, walker: RuleWalker) -> Iterable[Finding]:
        args = getattr(node, "args", None)
        if args is None:
            return
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                kind = type(default).__name__.lower()
                yield self.make_finding(
                    ctx, default,
                    f"mutable default argument ({kind} literal); use None and "
                    "create inside the function",
                )
            elif isinstance(default, ast.Call):
                resolved = ctx.resolve(default.func)
                if resolved in self.MUTABLE_CALLS:
                    yield self.make_finding(
                        ctx, default,
                        f"mutable default argument ({resolved}()); use None and "
                        "create inside the function",
                    )


class FloatEqualityRule(Rule):
    """SA105 — no ``==`` / ``!=`` against float literals in numerical modules.

    Normalized metrics live in [0,1] and go through SMACOF/stress math;
    exact comparison against a float literal is almost always a latent
    tolerance bug.  Integer literals and ``0`` are fine; use
    ``math.isclose``/``np.isclose`` or an ordered comparison.
    """

    id = "SA105"
    name = "no-bare-float-equality"
    rationale = (
        "[0,1]-normalized metric math must compare with tolerances "
        "(math.isclose / ordered comparisons), not exact float equality"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.layer in NUMERICAL_LAYERS

    def visit_compare(self, node: ast.Compare, ctx: FileContext, walker: RuleWalker) -> Iterable[Finding]:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if isinstance(side, ast.Constant) and isinstance(side.value, float):
                    yield self.make_finding(
                        ctx, node,
                        f"exact float comparison against {side.value!r}; use "
                        "math.isclose/np.isclose or an ordered comparison",
                    )
                    break


class AdHocTelemetryRule(Rule):
    """SA106 — core never constructs tracers/timers; it goes through Telemetry.

    The ``Telemetry`` facade is what makes self-measurement disableable
    (``config.telemetry=False``) and keeps the <5% overhead budget
    enforceable by ``benchmarks/bench_perf_overhead.py``; a Span or
    StageTimer built ad-hoc in core bypasses the enable gate and the
    shared registry.
    """

    id = "SA106"
    name = "telemetry-via-facade"
    rationale = (
        "spans/timers built outside the Telemetry facade bypass the "
        "enable gate, the span cap and the shared registry"
    )

    BANNED_TYPES = {"Tracer", "Span", "StageTimer"}

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.layer == "core"

    def _is_banned(self, resolved: str) -> bool:
        return (
            resolved.startswith("repro.telemetry")
            and resolved.rsplit(".", 1)[-1] in self.BANNED_TYPES
        )

    def visit_call(self, node: ast.Call, ctx: FileContext, walker: RuleWalker) -> Iterable[Finding]:
        resolved = ctx.resolve(node.func)
        if resolved and self._is_banned(resolved):
            yield self.make_finding(
                ctx, node,
                f"ad-hoc telemetry construction {resolved}() in core; use the "
                "Telemetry facade (telemetry.stage/.counter/...) instead",
            )

    def visit_import(self, node: ast.stmt, ctx: FileContext, walker: RuleWalker) -> Iterable[Finding]:
        if not isinstance(node, ast.ImportFrom) or walker.in_type_checking:
            return
        module = node.module or ""
        if module in ("repro.telemetry.spans", "repro.telemetry.timers"):
            names = {alias.name for alias in node.names}
            banned = sorted(names & self.BANNED_TYPES)
            if banned:
                yield self.make_finding(
                    ctx, node,
                    f"core imports {', '.join(banned)} from {module}; "
                    "core must reach spans/timers through the Telemetry facade",
                )


class ConfigValidationRule(Rule):
    """SA107 — every StayAwayConfig field is validated or documented.

    The config is the public tuning surface of the reproduction; a field
    with neither a ``__post_init__`` check nor a docstring parameter
    entry is un-auditable — nobody can tell its legal range or what the
    paper says about it.
    """

    id = "SA107"
    name = "config-fields-audited"
    rationale = (
        "public tunables need a __post_init__ validator or a docstring "
        "parameter entry stating their meaning/range"
    )

    TARGET_CLASS = "StayAwayConfig"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module == "repro.core.config"

    def visit_classdef(self, node: ast.ClassDef, ctx: FileContext, walker: RuleWalker) -> Iterable[Finding]:
        if node.name != self.TARGET_CLASS:
            return
        documented = self._documented_params(ast.get_docstring(node) or "")
        validated = self._validated_fields(node)
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
                continue
            annotation = ast.unparse(stmt.annotation) if stmt.annotation else ""
            if annotation.startswith("ClassVar"):
                continue
            field_name = stmt.target.id
            if field_name not in documented and field_name not in validated:
                yield self.make_finding(
                    ctx, stmt,
                    f"config field '{field_name}' has neither a __post_init__ "
                    "validator nor a docstring parameter entry",
                )

    @staticmethod
    def _documented_params(docstring: str) -> Set[str]:
        """Parameter names from numpydoc-style ``name:`` / ``a / b:`` lines."""
        names: Set[str] = set()
        for raw in docstring.splitlines():
            line = raw.strip()
            if not line.endswith(":") or " " in line.replace(" / ", "/"):
                continue
            for part in line[:-1].split("/"):
                part = part.strip()
                if part.isidentifier():
                    names.add(part)
        return names

    @staticmethod
    def _validated_fields(node: ast.ClassDef) -> Set[str]:
        """Fields referenced as ``self.X`` inside ``__post_init__``."""
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__":
                return {
                    sub.attr
                    for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                }
        return set()


class BroadExceptRule(Rule):
    """SA108 — no unjustified broad/bare ``except`` in ``repro.*``.

    A ``except Exception`` that swallows whatever went wrong is how
    silent model corruption and dropped fault context happen (the exact
    failure mode PR-5's watchdog exists to catch).  The sanctioned
    broad handlers — the controller's stage firewall, the chaos
    CrashGuard — are *deliberate* containment boundaries and carry a
    ``# sacheck: disable=SA108 -- <why>`` justification (or a baseline
    entry); everything else must catch the narrowest type that can
    actually occur.
    """

    id = "SA108"
    name = "no-broad-except"
    rationale = (
        "broad exception handlers hide fault context; containment "
        "boundaries must be explicit (justified suppression), all other "
        "handlers catch narrow types"
    )

    BROAD = {"Exception", "BaseException", "builtins.Exception", "builtins.BaseException"}

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module.startswith("repro.")

    def _broad_name(self, node: ast.ExceptHandler, ctx: FileContext) -> str:
        """The offending spelling, or '' when the handler is narrow."""
        if node.type is None:
            return "bare except"
        candidates = (
            node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        )
        for candidate in candidates:
            resolved = ctx.resolve(candidate)
            if resolved in self.BROAD:
                return f"except {resolved.rsplit('.', 1)[-1]}"
        return ""

    def visit_excepthandler(
        self, node: ast.ExceptHandler, ctx: FileContext, walker: RuleWalker
    ) -> Iterable[Finding]:
        spelling = self._broad_name(node, ctx)
        if spelling:
            yield self.make_finding(
                ctx, node,
                f"{spelling} without justification; catch the narrowest "
                "exception type, or mark a deliberate containment boundary "
                "with '# sacheck: disable=SA108 -- <why>'",
            )


def default_rules() -> List[Rule]:
    """All rules in ID order.

    SA103, SA205 and SA206 live in :mod:`tools.sacheck.layering`; the
    interprocedural SA201/SA202/SA204 in :mod:`tools.sacheck.effects`;
    SA203 in :mod:`tools.sacheck.shapes`.  SA201/SA204/SA205/SA206
    deactivate themselves unless the caller supplies a phase-1 project index (the
    CLI always does).
    """
    from tools.sacheck.effects import (
        SA201EffectRule,
        SA202OrderStableFoldRule,
        SA204ShardSafetyRule,
    )
    from tools.sacheck.layering import (
        LayeringRule,
        OrphanModuleRule,
        OrphanSymbolRule,
    )
    from tools.sacheck.shapes import SA203ShapeContractRule

    return [
        WallClockRule(),
        GlobalRngRule(),
        LayeringRule(),
        MutableDefaultRule(),
        FloatEqualityRule(),
        AdHocTelemetryRule(),
        ConfigValidationRule(),
        BroadExceptRule(),
        SA201EffectRule(),
        SA202OrderStableFoldRule(),
        SA203ShapeContractRule(),
        SA204ShardSafetyRule(),
        OrphanModuleRule(),
        OrphanSymbolRule(),
    ]


def rule_catalog() -> Dict[str, Dict[str, str]]:
    """``{id: {name, rationale}}`` for ``--list-rules`` and docs."""
    return {
        rule.id: {"name": rule.name, "rationale": rule.rationale}
        for rule in default_rules()
    }
