"""Run one workload for a time budget and reduce it to metrics."""

from __future__ import annotations

import contextlib
import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy

from benchmarks.e2e import gauge, metrics
from benchmarks.e2e.tracer import Tracer, installed, layer_metrics
from benchmarks.e2e.workloads import BUILDERS, Outcome, episode_seed, timed_build

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
#: Episodes built before the timed region; their build times are the
#: ``setup_s`` samples (more are added if the run builds more episodes).
PREBUILT = 3
#: A set-up that takes under a millisecond is repeated (and the extra
#: builds dropped) until this much build time has been sampled.
SETUP_MIN_S = 0.25
SETUP_MAX_BUILDS = 60
#: Scale of the throw-away run that absorbs first-touch costs.
WARMUP_SCALE = 0.04


def environment(seed: int, scale: float) -> Dict[str, object]:
    """Where and on what these numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=HERE, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the acceptance checkout is not a git repository
    load = os.getloadavg()[0]
    cores = os.cpu_count() or 1
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": cores,
        "load_1m_at_start": load,
        "noisy": load > cores,
        "seed": seed,
        "scale": scale,
    }


def import_seconds() -> float:
    """Seconds a fresh interpreter needs to import the program under test.

    Part of ``setup_s``: every user pays it, and work a later change
    moves from the control period to import time has to show somewhere.
    """
    code = (
        "import time; t = time.perf_counter(); "
        "import repro.core, repro.sim, repro.fleet, repro.service, repro.experiments; "
        "print(time.perf_counter() - t)"
    )
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(HERE.parents[1] / "src")},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(child.stdout)


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, scale: float = 1.0
) -> Dict[str, object]:
    """Run ``name`` until ``seconds`` of timed work are done.

    At least one episode always runs; another starts only while
    stopping now would leave the timed work further from ``seconds``
    than finishing one more. Building an episode is never timed work,
    but episodes built after the first start do use up the budget.
    """
    if name not in BUILDERS:
        raise SystemExit(f"unknown workload {name!r}; known: {sorted(BUILDERS)}")
    env = environment(seed, scale)
    tracer = Tracer(name)
    with installed(tracer) if traced else contextlib.nullcontext():
        result = _measure(name, seed, seconds, scale, tracer, traced)
    result["env"] = {**env, "repeats": result["episodes"]}
    return result


def _measure(
    name: str, seed: int, seconds: float, scale: float, tracer: Tracer, traced: bool
) -> Dict[str, object]:
    # Set-up samples are (raw, paced) seconds, like everything timed.
    imports = [gauge.gauged(import_seconds)[1:] for _ in range(PREBUILT)]
    BUILDERS[name](episode_seed(seed, 999), WARMUP_SCALE).run(tracer)

    setups: List[Tuple[float, float]] = []
    ready = []
    for index in range(PREBUILT):
        episode, *took = timed_build(name, seed, index, scale)
        ready.append(episode)
        setups.append(tuple(took))
    while sum(raw for raw, _ in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_BUILDS:
        setups.append(timed_build(name, seed, 0, scale)[1:])

    outcomes: List[Outcome] = []
    began = time.perf_counter()
    while True:
        index = len(outcomes)
        if index < len(ready):
            episode = ready[index]
            ready[index] = None  # let a finished episode be collected
        else:
            episode, *took = timed_build(name, seed, index, scale)
            setups.append(tuple(took))
        gc.collect()
        tracer.active = traced
        outcome = episode.run(tracer)
        tracer.active = False
        if traced:
            tracer.fold()
        outcomes.append(outcome)
        del episode
        spent = time.perf_counter() - began
        if spent + spent / len(outcomes) / 2.0 >= seconds:
            break
    return _reduce(name, seconds, imports, tracer, traced, outcomes, setups)


def _reduce(
    name: str,
    seconds: float,
    imports: List[Tuple[float, float]],
    tracer: Tracer,
    traced: bool,
    outcomes: List[Outcome],
    setups: List[Tuple[float, float]],
) -> Dict[str, object]:
    acks = [t for o in outcomes for t in o.ack_ticks]
    wall = sum(o.wall_s for o in outcomes)
    host_ticks = sum(o.host_ticks for o in outcomes)
    sims = [o.sim for o in outcomes]

    def total(key: str) -> float:
        return float(sum(sim.get(key, 0) for sim in sims))

    def timings(paced: int) -> Dict[str, Optional[float]]:
        """The time metrics, raw (0) or at the gauge's reference speed (1)."""
        periods = [s for o in outcomes for s in (o.periods_s, o.paced_periods_s)[paced]]
        rounds = [s for o in outcomes for s in (o.rounds_s, o.paced_rounds_s)[paced]]
        return {
            "host_ticks_per_s": host_ticks / sum((o.wall_s, o.paced_s)[paced] for o in outcomes),
            "period_p50_us": metrics.percentile(periods, 50) * 1e6,
            "period_p99_us": metrics.percentile(periods, 99) * 1e6,
            "round_p50_ms": metrics.percentile(rounds, 50) * 1e3 if rounds else None,
            "round_p95_ms": metrics.percentile(rounds, 95) * 1e3 if rounds else None,
            "setup_s": statistics.median(took[paced] for took in imports)
            + statistics.median(took[paced] for took in setups),
        }

    paced = timings(1)
    setup_s = paced.pop("setup_s")
    end_to_end: Dict[str, Optional[float]] = {
        **paced,
        "sample_to_ack_p50_ticks": metrics.percentile(acks, 50) if acks else None,
        "sample_to_ack_p99_ticks": metrics.percentile(acks, 99) if acks else None,
        "violation_ratio": None,
        "batch_work": None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    if "qos_reports" in sims[0]:
        reports = total("qos_reports")
        end_to_end["violation_ratio"] = total("violations") / reports if reports else 0.0
        end_to_end["batch_work"] = total("batch_work") / len(sims)

    per_layer: Dict[str, float] = {count: total(count) / len(sims) for count in metrics.COUNTS}
    per_layer["sim.host_ticks"] = host_ticks / len(sims)
    for ratio, (numerator, denominator) in metrics.RATIOS.items():
        below = total(denominator)
        per_layer[ratio] = total(numerator) / below if below else 0.0
    for metric, (_, _, alias, _) in metrics.WORKLOAD_E2E.items():
        per_layer[alias] = end_to_end[metric] or 0.0
    per_layer[metrics.GAUGE] = statistics.median(s for o in outcomes for s in o.gauge_s) * 1e6

    result: Dict[str, object] = {
        "workload": name,
        "traced": traced,
        "seconds": seconds,
        "episodes": len(outcomes),
        "timed_wall_s": wall,
        "samples": {
            "periods": sum(len(o.periods_s) for o in outcomes),
            "rounds": sum(len(o.rounds_s) for o in outcomes),
            "acks": len(acks),
            "setups": len(setups),
            "imports": len(imports),
        },
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "errors": [error for o in outcomes for error in o.errors],
        "end_to_end": end_to_end,
        "raw": timings(0),
        "per_layer": per_layer,
        "episode_sims": sims,
    }
    if traced:
        per_layer.update(layer_metrics(tracer))
        covered = sum(entry[2] for entry in tracer.stats.values())
        root = tracer.root_s()
        trace_file = OUT_DIR / f"trace_{name}.jsonl"
        tracer.write(trace_file)
        result["trace"] = {
            "root_wall_s": root,
            "layer_self_sum_s": covered,
            "file": str(trace_file.relative_to(HERE.parents[1])),
            "spans_in_file": len(tracer.kept),
            "calls": {span: int(entry[0]) for span, entry in sorted(tracer.stats.items())},
            "self_s": {span: entry[2] for span, entry in sorted(tracer.stats.items())},
        }
        versus = _trace_vs_telemetry(tracer, outcomes)
        if versus:
            result["trace"]["trace_vs_telemetry_pct"] = versus
        if abs(covered - root) > 0.05 * root:
            result["errors"].append(
                f"layer self times sum to {covered:.3f}s, root spans to {root:.3f}s"
            )
    result["correct"] = not result["errors"]
    return result


def _trace_vs_telemetry(tracer: Tracer, outcomes: List[Outcome]) -> Dict[str, float]:
    """Traced span means against the program's own stage-timer means.

    ``controller.map`` times ``map_measurement``; ``controller.predict``
    times ``Predictor.observe`` + ``predict``. Positive: the tracer
    reads higher.
    """
    spans = {
        "controller.map": ("core.map",),
        "controller.predict": ("core.observe", "core.predict"),
    }
    out: Dict[str, float] = {}
    for stage, names in spans.items():
        count = sum(o.stages.get(stage, (0, 0.0))[0] for o in outcomes)
        seconds = sum(o.stages.get(stage, (0, 0.0))[1] for o in outcomes)
        calls = tracer.calls(names[-1])
        if count and calls and seconds:
            traced_mean = sum(tracer.total_s(n) for n in names) / calls
            out[stage] = 100.0 * (traced_mean / (seconds / count) - 1.0)
    return out


def contract_line(result: Dict[str, object]) -> Dict[str, object]:
    """The one JSON object the acceptance driver reads."""
    if result["traced"]:
        values = {
            spec["name"]: (result["per_layer"][spec["name"]], spec["unit"])
            for spec in metrics.per_layer_spec()
        }
    else:
        values = {
            name: (result["end_to_end"][name], unit)
            for name, (unit, _, _) in metrics.GATED.items()
        }
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in values.items()
        },
    }


def print_report(result: Dict[str, object]) -> None:
    """Every metric by name with its unit, human-readable."""
    e2e_units = {name: spec[0] for name, spec in {**metrics.GATED, **metrics.WORKLOAD_E2E}.items()}
    layer_units = {spec["name"]: spec["unit"] for spec in metrics.per_layer_spec()}
    layer_units.update({name: "%" for name in metrics.SHARES})
    samples = result["samples"]
    mode = "traced" if result["traced"] else "untraced"
    print(
        f"== {result['workload']} ({mode}; {result['episodes']} episodes, "
        f"{result['timed_wall_s']:.2f}s timed; samples: {samples['periods']} periods, "
        f"{samples['rounds']} rounds, {samples['acks']} acks, {samples['setups']} builds, "
        f"{samples['imports']} imports)"
    )
    if result["env"]["noisy"]:
        print("   NOISY: load average above nproc when the pass started")
    for name, value in result["end_to_end"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        raw = result["raw"].get(name)
        unpaced = "" if raw is None else f"   (raw wall clock: {raw:.6g})"
        print(f"   {name:34s} {shown:>14s} {e2e_units[name]}{unpaced}")
    for name, value in result["per_layer"].items():
        if name in layer_units and (result["traced"] or name not in metrics.TIMINGS):
            print(f"   {name:34s} {value:14.6g} {layer_units[name]}")
    digests = [str(sim["decision_digest"])[:12] for sim in result["episode_sims"]]
    print(f"   decision_digest (per episode)      {' '.join(digests)}")
    print(
        f"   operations attempted {result['attempted']}, failed {result['failed']}; "
        f"correct: {result['correct']}"
    )
    for error in result["errors"]:
        print(f"   ERROR: {error}")
