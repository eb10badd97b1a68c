"""Unit tests for StayAwayConfig, the option surface, and the event log."""

import ast
import dataclasses
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

from repro.core.config import StayAwayConfig
from repro.core.events import Event, EventKind, EventLog


class TestStayAwayConfig:
    def test_paper_defaults(self):
        config = StayAwayConfig()
        assert config.beta_initial == 0.01  # §3.3
        assert config.n_samples == 5        # §3.2.3
        assert config.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"starvation_patience": 0},
            {"n_samples": 0},
            {"radius_law": "gaussian"},
            {"fixed_radius": -0.1},
            {"dedup_epsilon": -0.1},
            {"beta_initial": 0.0},
            {"beta_increment": -0.1},
            {"probe_probability": 1.5},
            {"stream_watermark": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StayAwayConfig(**kwargs)

    def test_custom_values_accepted(self):
        config = StayAwayConfig(n_samples=9, starvation_patience=1)
        assert config.n_samples == 9


REPO = Path(__file__).resolve().parents[2]

#: Where the program lives. What only tests set is not an option.
PROGRAM_ROOTS = ("src", "benchmarks", "examples")
CONFIG_MODULE = REPO / "src" / "repro" / "core" / "config.py"

#: The whole configuration surface. Adding a knob means editing this
#: set — and having a program caller that sets it (see below).
CONFIG_FIELDS = {
    "n_samples", "dedup_epsilon", "beta_initial", "beta_increment",
    "starvation_patience", "probe_probability", "enabled",
    "per_mode_models", "radius_law", "fixed_radius", "seed",
    "resilience", "telemetry", "containment", "stream_watermark",
}

#: Layers whose defaulted constructor parameters must each have a
#: program caller that sets them.
LAYERS = ("core", "monitoring", "service", "fleet", "trajectory")

#: Modules whose only callers are tests by design (their sacheck SA205
#: baseline entries carry the full reasons).
TEST_DRIVEN_MODULES = {
    "monitoring/ipc.py": "SA205: the paper's section 3.1 counter channel, "
    "plugged in through violation_detector= by tests only",
    "service/exporter.py": "SA205: the producer side of `repro serve "
    "--scrape`, meeting the CLI at a file, not at an import",
}

#: Single parameters kept although no program caller sets them.
TEST_DRIVEN_PARAMETERS = {
    "PrometheusScrapeSource.prefix": "a deployment setting shared with "
    "the exporter's metric prefix, not a control-plane tunable",
}


def program_modules() -> Iterator[Tuple[Path, ast.Module]]:
    for root in PROGRAM_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def callee(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def dict_keys(node: ast.AST) -> Set[str]:
    """String keys a dict literal or a ``dict(...)`` call spells out."""
    if isinstance(node, ast.Dict):
        keys: Set[str] = set()
        for key, value in zip(node.keys, node.values):
            if key is None:
                keys |= dict_keys(value)
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.add(key.value)
        return keys
    if isinstance(node, ast.Call) and callee(node) == "dict":
        return {kw.arg for kw in node.keywords if kw.arg is not None}
    return set()


def keyword_args(call: ast.Call, tree: ast.Module) -> Dict[str, ast.AST]:
    """Keyword name -> value of one call. A ``**mapping`` contributes a
    literal's keys or, for a name, the keys of every dict its module
    spells out."""
    args: Dict[str, ast.AST] = {}
    for kw in call.keywords:
        if kw.arg is not None:
            args[kw.arg] = kw.value
            continue
        keys = dict_keys(kw.value)
        if not isinstance(kw.value, (ast.Dict, ast.Call)):
            keys = {key for node in ast.walk(tree) for key in dict_keys(node)}
        args.update(dict.fromkeys(keys, kw.value))
    return args


def config_fields_set() -> Set[str]:
    """Fields a program caller passes to ``StayAwayConfig`` or ``replace``."""
    fields: Set[str] = set()
    for path, tree in program_modules():
        if path == CONFIG_MODULE:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and callee(node) in ("StayAwayConfig", "replace"):
                fields |= set(keyword_args(node, tree))
    return fields


def co_set_flag_groups() -> List[List[str]]:
    """Boolean fields that every program caller sets together, to the
    same value: one switch spelled several ways.

    Callers are counted as in :func:`config_fields_set`. A field's
    record is what each call passes it (nothing, or the argument's
    source); fields with equal records, set at least once, form a
    group. A value splatted from a mapping is unknown, so it never
    equals another field's.
    """
    flags = sorted(f.name for f in dataclasses.fields(StayAwayConfig) if f.type in (bool, "bool"))
    records: Dict[str, List[Optional[str]]] = {name: [] for name in flags}
    for path, tree in program_modules():
        if path == CONFIG_MODULE:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and callee(node) in ("StayAwayConfig", "replace"):
                spelled = {kw.arg: kw.value for kw in node.keywords if kw.arg is not None}
                args = keyword_args(node, tree)
                for name in flags:
                    if name in spelled:
                        records[name].append(ast.dump(spelled[name]))
                    else:
                        records[name].append(f"{name} from a mapping" if name in args else None)
    groups: Dict[Tuple[Optional[str], ...], List[str]] = {}
    for name, record in records.items():
        if any(value is not None for value in record):
            groups.setdefault(tuple(record), []).append(name)
    return sorted(group for group in groups.values() if len(group) > 1)


def unset_config_fields() -> Set[str]:
    return {f.name for f in dataclasses.fields(StayAwayConfig)} - config_fields_set()


def own_init(node: ast.ClassDef) -> Optional[ast.FunctionDef]:
    return next(
        (s for s in node.body if isinstance(s, ast.FunctionDef) and s.name == "__init__"),
        None,
    )


def constructors() -> Dict[str, Tuple[Path, ast.FunctionDef]]:
    """``{class: (module, __init__)}`` for the layers' top-level classes."""
    found = {}
    for layer in LAYERS:
        for path in sorted((REPO / "src" / "repro" / layer).glob("*.py")):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(node, ast.ClassDef):
                    init = own_init(node)
                    if init is not None:
                        found[node.name] = (path, init)
    return found


def positional(init: ast.FunctionDef) -> list:
    return [arg.arg for arg in init.args.args[1:]]


def defaulted(init: ast.FunctionDef) -> Set[str]:
    names = positional(init)
    names = names[len(names) - len(init.args.defaults):] if init.args.defaults else []
    return set(names) | {
        arg.arg
        for arg, default in zip(init.args.kwonlyargs, init.args.kw_defaults)
        if default is not None
    }


def passed(call: ast.Call, tree: ast.Module, init: ast.FunctionDef) -> Dict[str, ast.AST]:
    """Parameter -> argument of one call of ``init``'s class."""
    args = keyword_args(call, tree)
    names = positional(init)
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            args.update(dict.fromkeys(names[index:], arg))
            break
        if index < len(names):
            args[names[index]] = arg
    return args


def super_init(init: ast.FunctionDef) -> Optional[ast.Call]:
    for node in ast.walk(init):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__init__"
            and isinstance(node.func.value, ast.Call)
            and callee(node.func.value) == "super"
        ):
            return node
    return None


def constructor_parameters_unset() -> Set[str]:
    """``Class.param`` for every defaulted layer parameter no program
    caller sets.

    A direct call counts unless its argument only forwards a config
    field no caller sets. A ``super().__init__`` call counts where it
    forwards one of the subclass's own parameters; a literal there is
    the subclass's own constant, not a caller's choice.
    """
    forwarded_nothing = unset_config_fields()
    inits = constructors()
    chosen: Set[str] = set()
    for _, tree in program_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and callee(node) in inits:
                name = callee(node)
                for param, arg in passed(node, tree, inits[name][1]).items():
                    if not any(
                        isinstance(sub, ast.Attribute) and sub.attr in forwarded_nothing
                        for sub in ast.walk(arg)
                    ):
                        chosen.add(f"{name}.{param}")
            elif isinstance(node, ast.ClassDef):
                init = own_init(node)
                call = super_init(init) if init is not None else None
                if call is None:
                    continue
                own = set(positional(init)) | {arg.arg for arg in init.args.kwonlyargs}
                for base in node.bases:
                    if not (isinstance(base, ast.Name) and base.id in inits):
                        continue
                    for param, arg in passed(call, tree, inits[base.id][1]).items():
                        if isinstance(arg, ast.Name) and arg.id in own:
                            chosen.add(f"{base.id}.{param}")
    unset = set()
    for name, (path, init) in inits.items():
        if path.relative_to(REPO / "src" / "repro").as_posix() in TEST_DRIVEN_MODULES:
            continue
        unset |= {f"{name}.{param}" for param in defaulted(init)} - chosen
    return unset - set(TEST_DRIVEN_PARAMETERS)


class TestConfigSurface:
    def test_field_set_is_pinned(self):
        fields = {f.name for f in dataclasses.fields(StayAwayConfig)}
        assert fields == CONFIG_FIELDS

    def test_every_field_is_set_by_some_caller(self):
        """A knob only tests set is a constant: it belongs beside its code.

        Counts a field as set when a program caller (``src/``,
        ``benchmarks/``, ``examples/``; tests do not count) passes it to
        ``StayAwayConfig(...)`` or ``replace(...)`` by keyword or as a
        key of a splatted dict.
        """
        unset = unset_config_fields()
        assert not unset, f"config fields no program caller sets: {sorted(unset)}"

    def test_no_two_flags_are_always_set_together(self):
        """Boolean fields that no program caller ever sets apart are one
        switch: they belong in one field."""
        groups = co_set_flag_groups()
        assert not groups, f"boolean fields always set together, to one value: {groups}"

    def test_every_constructor_option_is_set_by_some_caller(self):
        """The same rule for the defaulted ``__init__`` parameters of
        the control plane: one no program caller sets is a constant."""
        unset = constructor_parameters_unset()
        assert not unset, f"parameters no program caller sets: {sorted(unset)}"

    def test_allowlist_names_existing_code(self):
        inits = constructors()
        modules = {path.relative_to(REPO / "src" / "repro").as_posix() for path, _ in inits.values()}
        assert set(TEST_DRIVEN_MODULES) <= modules
        for name in TEST_DRIVEN_PARAMETERS:
            cls, param = name.split(".")
            assert param in defaulted(inits[cls][1]), name


class TestEventLog:
    def test_record_and_iterate(self):
        log = EventLog()
        event = log.record(3, EventKind.THROTTLE, targets=["b"])
        assert isinstance(event, Event)
        assert len(log) == 1
        assert list(log)[0].detail == {"targets": ["b"]}

    def test_of_kind_and_count(self):
        log = EventLog()
        log.record(0, EventKind.THROTTLE)
        log.record(1, EventKind.RESUME)
        log.record(2, EventKind.THROTTLE)
        assert log.count(EventKind.THROTTLE) == 2
        assert [e.tick for e in log.of_kind(EventKind.THROTTLE)] == [0, 2]

    def test_detail_is_copied(self):
        log = EventLog()
        payload = {"a": 1}
        event = log.record(0, EventKind.NEW_STATE, **payload)
        payload["a"] = 2
        assert event.detail["a"] == 1
