"""The whole benchmark from one command: ``python -m benchmarks.e2e``.

For every workload it runs an untraced pass (end-to-end metrics) and a
traced pass (per-layer metrics), each in its own fresh child process,
one at a time, and then cross-checks them: everything fixed by the seed
— decision digests, ground-truth QoS, batch work, every count — must be
identical with and without the tracer. ``--selfcheck`` does all of that
twice and compares the two sets against the benchmark's own bounds.
Exits non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e import metrics

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
BASELINE = HERE / "BASELINE.json"
#: Time and memory end-to-end metrics of one untraced pass, with the
#: bound two passes of the same code must agree within.
WALL_BOUNDS: Dict[str, float] = {
    **{name: bound for name, (_, _, bound) in metrics.GATED.items()},
    "period_p99_us": 0.25,
    "round_p50_ms": 0.25,
    "round_p95_ms": 0.25,
}


def run_pass(name: str, seed: int, seconds: float, scale: float, traced: bool) -> Dict:
    """One child process, one workload, one pass; returns its full result."""
    OUT_DIR.mkdir(exist_ok=True)
    result_file = OUT_DIR / f"result_{name}_{'traced' if traced else 'untraced'}.json"
    result_file.unlink(missing_ok=True)
    child = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--scale", str(scale), "--trace", "1" if traced else "0",
            "--result-file", str(result_file),
        ],
        capture_output=True, text=True, timeout=600,
    )
    report = child.stdout.rstrip().splitlines()
    print("\n".join(report[:-1] if report and report[-1].startswith("{") else report))
    if not result_file.exists():
        raise SystemExit(f"{name}: pass died (exit {child.returncode}):\n{child.stderr}")
    return json.loads(result_file.read_text(encoding="utf-8"))


def share(result: Dict, layer: str, *spans: str) -> float:
    """Self-time share of a whole layer plus the named spans, in percent."""
    trace = result["trace"]
    mine = sum(
        seconds for span, seconds in trace["self_s"].items()
        if span.startswith(layer + ".") or span in spans
    )
    return 100.0 * mine / trace["layer_self_sum_s"]


def run_set(seed: int, seconds: float, scale: float, names: List[str]) -> Tuple[Dict, List[str]]:
    """Untraced + traced pass per workload, and what they got wrong."""
    problems: List[str] = []
    rows: Dict[str, Dict] = {}
    for name in names:
        plain = run_pass(name, seed, seconds, scale, traced=False)
        traced = run_pass(name, seed, seconds, scale, traced=True)
        for result in (plain, traced):
            problems += [f"{name}: {error}" for error in result["errors"]]
        shared = min(plain["episodes"], traced["episodes"])
        if plain["episode_sims"][:shared] != traced["episode_sims"][:shared]:
            problems.append(f"{name}: the tracer changed simulated behaviour")
        speed = "host_ticks_per_s"
        overhead = 100.0 * (plain["end_to_end"][speed] / traced["end_to_end"][speed] - 1.0)
        print(f"   trace_overhead_pct                 {overhead:14.3f} %")
        rows[name] = {"untraced": plain, "traced": traced, "trace_overhead_pct": overhead}

    for name, row in rows.items():
        layers = row["traced"]["per_layer"]
        for prefix, allowed in (("fleet.", "fleet_chaos"), ("service.", "stream_")):
            busy = any(
                value for metric, value in layers.items()
                if metric.startswith(prefix) and metric.endswith("_us")
            )
            if busy != name.startswith(allowed):
                problems.append(f"{name}: {prefix}* time is {'non-' if busy else ''}zero")
    if scale >= 1.0 and {"host_steady", "host_coldstart"} <= rows.keys():
        steady, cold = rows["host_steady"]["traced"], rows["host_coldstart"]["traced"]
        print("== layer separation (self-time share, %)      host_steady  host_coldstart")
        for label, parts, steady_wins in (
            ("trajectory.* + core.watchdog_us", ("trajectory", "core.watchdog"), True),
            ("mds.* + core.map_self_us", ("mds", "core.map", "core.add_sample"), False),
        ):
            a, b = share(steady, *parts), share(cold, *parts)
            print(f"   {label:42s} {a:11.2f} {b:15.2f}")
            if (a > b) != steady_wins:
                problems.append(f"layer separation: {label} is {a:.1f}% steady, {b:.1f}% cold")
    return rows, problems


def compare_sets(first: Dict, second: Dict) -> Tuple[Dict[str, Dict[str, float]], List[str]]:
    """The ``--selfcheck`` table: both values, their spread, the bound."""
    problems: List[str] = []
    spreads: Dict[str, Dict[str, float]] = {}
    print("== selfcheck: two sets of the same code")
    print(f"   {'workload':15s} {'metric':24s} {'first':>12s} {'second':>12s} {'spread':>8s} {'bound':>7s}")
    for name in first:
        a, b = first[name]["untraced"], second[name]["untraced"]
        spreads[name] = {}
        for metric, bound in WALL_BOUNDS.items():
            x, y = a["end_to_end"].get(metric), b["end_to_end"].get(metric)
            if x is None or y is None:
                continue
            apart = metrics.spread(x, y)
            spreads[name][metric] = apart
            flag = "" if apart <= bound else "  OVER"
            print(f"   {name:15s} {metric:24s} {x:12.5g} {y:12.5g} {apart:8.2%} {bound:7.0%}{flag}")
            if apart > bound and metric != "peak_rss_mb":
                problems.append(f"{name}: {metric} differs by {apart:.1%} (bound {bound:.0%})")
        shared = min(a["episodes"], b["episodes"])
        if a["episode_sims"][:shared] != b["episode_sims"][:shared]:
            problems.append(f"{name}: counts or digests differ between the two sets")
    return spreads, problems


def baseline(rows: Dict, spreads: Optional[Dict]) -> Dict:
    """The numbers of this commit, as ``BASELINE.json`` records them."""
    out: Dict[str, object] = {"claim": None, "workloads": {}}
    for name, row in rows.items():
        plain, traced = row["untraced"], row["traced"]
        out["workloads"][name] = {
            "env": plain["env"],
            "episodes": plain["episodes"],
            "samples": plain["samples"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "decision_digest": [sim["decision_digest"] for sim in plain["episode_sims"]],
            "end_to_end": {
                metric: {
                    "value": value,
                    "bound": WALL_BOUNDS.get(metric),
                    "selfcheck_spread": (spreads or {}).get(name, {}).get(metric),
                }
                for metric, value in plain["end_to_end"].items()
                if value is not None
            },
            "per_layer": traced["per_layer"],
            "trace_overhead_pct": row["trace_overhead_pct"],
            "trace_vs_telemetry_pct": traced["trace"].get("trace_vs_telemetry_pct"),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="timed work per pass (default 18)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies tick and host counts; published numbers use 1")
    parser.add_argument("--workload", action="append", choices=list(metrics.WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets and compare them against the bounds")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"record the numbers in {BASELINE.name}")
    args = parser.parse_args(argv)
    names = args.workload or list(metrics.WORKLOADS)

    rows, problems = run_set(args.seed, args.seconds, args.scale, names)
    spreads = None
    if args.selfcheck:
        again, more = run_set(args.seed, args.seconds, args.scale, names)
        spreads, drift = compare_sets(rows, again)
        problems += more + drift
        # Record, per workload, the set taken while the box was quieter.
        rows = {
            name: min(
                (rows[name], again[name]),
                key=lambda row: row["untraced"]["per_layer"][metrics.GAUGE],
            )
            for name in rows
        }
    record = baseline(rows, spreads)
    OUT_DIR.mkdir(exist_ok=True)
    target = BASELINE if args.write_baseline else OUT_DIR / "latest.json"
    target.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"numbers written to {target.relative_to(HERE.parents[1])}")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
