#!/usr/bin/env python
"""Alternating parent/change passes of the repo benchmark (stdlib only).

Runs the command ``BENCHMARK.json`` names from two checkouts, one pass
at a time, swapping which side goes first every pair, and prints for
each workload x end-to-end metric: both medians and quartiles, how many
pairs the change won (ties count for neither), the failed operations of
each side, whether the gap between the medians exceeds the parent's
inter-quartile range, and whether the change is worse than the
benchmark's bound allows. Every pass is printed as it finishes, so the
log holds every run made.

Pair ``i`` uses ``seeds[i % len(seeds)]`` on both sides. The benchmark
is read, never edited; both checkouts must hold the same
``BENCHMARK.json``.

``--layer NAME`` (repeatable) makes the passes traced ones and the rows
the named ``per_layer`` metrics instead: the same-hour traced pair. A
raw self time (``_us``, not a percentile, not the gauge) is multiplied
by ``400 / bench.gauge_us`` of its own pass, as the benchmark's README
says to, so two passes on a two-speed box compare.

``--sims`` runs no pairs: one ``--seconds 0`` pass per side per seed,
and the ``episode_sims`` of the two result files (decision digest,
violations, ``batch_work``, every count) must be equal key for key.

Usage::

    python tools/e2e_pairs.py --parent /root/scratch/parent --change . \\
        [--workload host_steady ...] --pairs 10 --seeds 3 7 11 5 --seconds 18
    python tools/e2e_pairs.py --parent P --change . --pairs 4 --seeds 3 11 \\
        --layer sim.step_self_us --layer monitoring.guard_us
    python tools/e2e_pairs.py --parent P --change . --sims --seeds 3 11

Exit status 0 when every pass was correct (and, with ``--sims``, every
episode equal), 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SIDES = ("parent", "change")
#: The speed gauge's reference reading (benchmarks/e2e/README.md).
REFERENCE_US = 400.0
GAUGE = "bench.gauge_us"


def run_pass(
    checkout: Path, command: List[str], workload: str, seed: int, seconds: float,
    traced: bool = False, result_file: Optional[Path] = None,
) -> dict:
    """One pass; the JSON object on the last line of its stdout."""
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
    ]
    if result_file is not None:
        argv += ["--result-file", str(result_file)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{checkout}: {' '.join(argv)} printed no result")
    result["correct"] = bool(result["correct"]) and done.returncode == 0
    return result


def reading(result: dict, metric: dict) -> float:
    """One metric of one pass; a raw self time at the gauge's reference speed."""
    name = metric["name"]
    value = float(result["metrics"][name]["value"])
    raw_self_time = (
        GAUGE in result["metrics"] and name != GAUGE
        and name.endswith("_us") and not re.search(r"_p\d+_us$", name)
    )
    if raw_self_time:
        value *= REFERENCE_US / float(result["metrics"][GAUGE]["value"])
    return value


def first_difference(parent: List[dict], change: List[dict]) -> Optional[str]:
    """Where two ``episode_sims`` lists first differ, or None when equal."""
    if len(parent) != len(change):
        return f"{len(parent)} episodes against {len(change)}"
    for episode, (ours, theirs) in enumerate(zip(parent, change)):
        for key in {**ours, **theirs}:
            if key not in ours or key not in theirs or ours[key] != theirs[key]:
                return (f"episode {episode} {key}: parent {ours.get(key)!r}, "
                        f"change {theirs.get(key)!r}")
    return None


def compare_sims(
    checkouts: Dict[str, Path], command: List[str], workloads: List[str], seeds: List[int]
) -> bool:
    """One single-episode pass per side per seed; True when all are equal."""
    equal = True
    with tempfile.TemporaryDirectory() as scratch:
        for workload in workloads:
            for seed in seeds:
                sims = {}
                for side in SIDES:
                    path = Path(scratch) / f"{side}.json"
                    result = run_pass(
                        checkouts[side], command, workload, seed, 0, result_file=path
                    )
                    equal &= result["correct"]
                    sims[side] = json.loads(path.read_text("utf-8"))["episode_sims"]
                difference = first_difference(sims["parent"], sims["change"])
                equal &= difference is None
                verdict = "episode_sims equal" if difference is None else f"DIFFERS at {difference}"
                print(f"{workload} seed {seed}: {verdict}", flush=True)
    return equal


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    metric: dict, parent: List[float], change: List[float]
) -> Dict[str, object]:
    """The verdict on one workload x metric from its paired values."""
    higher = metric["better"] == "higher"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    better_by = c_med - p_med if higher else p_med - c_med
    if p_med:
        gain = better_by / p_med
    else:  # a count that is zero at the parent: equal, or off the scale
        gain = 0.0 if not better_by else float("inf") * better_by
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "gain": gain,
        "wins": wins,
        "beyond_iqr": abs(c_med - p_med) > p_q3 - p_q1,
        "regressed": gain < -metric.get("bound", float("inf")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", action="append", default=None,
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 7, 11, 5])
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed work per pass; default: the benchmark's run_seconds")
    parser.add_argument("--layer", action="append", default=None,
                        help="repeatable; traced passes, one row per named per_layer metric")
    parser.add_argument("--sims", action="store_true",
                        help="no pairs: compare the episode_sims of one episode per seed")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    contract = json.loads((checkouts["change"] / "BENCHMARK.json").read_text("utf-8"))
    if contract != json.loads((checkouts["parent"] / "BENCHMARK.json").read_text("utf-8")):
        raise SystemExit("the two checkouts hold different BENCHMARK.json files")
    known = [workload["name"] for workload in contract["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; the benchmark has {known}")
    if args.sims:
        equal = compare_sims(checkouts, contract["command"], workloads, args.seeds)
        return 0 if equal else 1
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    metrics = contract["end_to_end"]
    if args.layer:
        layers = {spec["name"]: spec for spec in contract["per_layer"]}
        missing = sorted(set(args.layer) - set(layers))
        if missing:
            raise SystemExit(f"unknown per_layer metric(s) {missing}")
        metrics = [layers[name] for name in args.layer]

    all_correct = True
    for workload in workloads:
        values = {side: {m["name"]: [] for m in metrics} for side in SIDES}
        failed = {side: [0, 0] for side in SIDES}
        for pair in range(args.pairs):
            seed = args.seeds[pair % len(args.seeds)]
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run_pass(
                    checkouts[side], contract["command"], workload, seed, seconds,
                    traced=bool(args.layer),
                )
                all_correct &= result["correct"]
                failed[side][0] += int(result["failed"])
                failed[side][1] += int(result["attempted"])
                for metric in metrics:
                    values[side][metric["name"]].append(reading(result, metric))
                print(
                    f"{workload} pair {pair} seed {seed} {side}: "
                    + " ".join(
                        f"{m['name']}={values[side][m['name']][-1]:.6g}" for m in metrics
                    )
                    + f" failed={result['failed']}/{result['attempted']}"
                    + ("" if result["correct"] else " INCORRECT"),
                    flush=True,
                )
        print(f"\n== {workload}: {args.pairs} pairs, seeds {args.seeds}, "
              f"{seconds:g} s a pass; failed operations "
              + ", ".join(f"{side} {failed[side][0]}/{failed[side][1]}" for side in SIDES))
        print(f"{'metric':<26}{'parent q1 / median / q3':>34}"
              f"{'change q1 / median / q3':>34}{'gain':>9}{'wins':>7}  verdict")
        for metric in metrics:
            name = metric["name"]
            row = summarize(metric, values["parent"][name], values["change"][name])
            verdict = "gap > parent IQR" if row["beyond_iqr"] else "gap within parent IQR"
            if row["regressed"]:
                verdict += f"; WORSE beyond the {metric['bound']:.0%} bound"
            print(
                f"{name:<26}"
                + "".join(
                    f"{' / '.join(f'{v:.5g}' for v in row[side]):>34}" for side in SIDES
                )
                + f"{row['gain']:>+9.1%}{row['wins']:>4}/{args.pairs:<2}  {verdict}"
                + (f" ({metric['unit']}, {metric['better']} is better)")
            )
        print(flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
