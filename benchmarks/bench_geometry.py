"""Perf trajectory — cached vectorized violation geometry vs scalar loop.

PR 4 turned ``StateSpace.violation_vote`` from a per-candidate Python
loop (re-deriving every violation radius on every call) into a single
broadcasted NumPy expression over a cached :class:`ViolationGeometry`.
This bench quantifies the win: synthetic state spaces of growing size
(~20% violation states, written directly into the space so the
build itself costs nothing) are voted on by both paths, the vote counts
are asserted identical per batch, and the cached path must be at least
5x faster than the scalar reference at 500 states.

It writes ``BENCH_geometry.json`` at the repo root (override with
``--out``), including the one-off geometry rebuild cost so later PRs
can regress against both the steady-state and the invalidation price.

Run standalone (used by the CI smoke step)::

    PYTHONPATH=src python -m benchmarks.bench_geometry --sizes 50 500

or through pytest with the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_geometry.py -q
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from benchmarks.helpers import write_report
from repro.core.state_space import StateLabel, StateSpace
from tests.support.geometry_reference import violation_vote_scalar

DEFAULT_SIZES = (50, 200, 500, 1000)
DEFAULT_VOTES = 64
DEFAULT_REPEATS = 5
THRESHOLD_SPEEDUP = 5.0
REFERENCE_SIZE = 500
VIOLATION_FRACTION = 0.2
DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_geometry.json"


def build_space(n_states: int, seed: int) -> StateSpace:
    """A learned-looking state space with its rows written directly.

    Representatives, 2-D coords and labels are assigned as arrays (not
    through ``add_sample``) so space construction
    is O(n) and the bench times only the vote paths. The explicit
    invalidation calls honor the external-mutation contracts.
    """
    rng = np.random.default_rng(seed)
    dim = 6
    space = StateSpace(epsilon=0.01, refit_interval=10**9)
    points = rng.uniform(0.0, 1.0, size=(n_states, dim))
    space.representatives._points = [row.copy() for row in points]
    space.representatives._counts = [1] * n_states
    space.representatives.dimension = dim
    space.representatives.invalidate_index()
    space.coords = rng.uniform(0.0, 1.0, size=(n_states, 2))
    n_violations = max(1, int(round(n_states * VIOLATION_FRACTION)))
    violated = set(rng.choice(n_states, size=n_violations, replace=False).tolist())
    space.labels = [
        StateLabel.VIOLATION if i in violated else StateLabel.SAFE
        for i in range(n_states)
    ]
    space.invalidate_geometry()
    return space


def _best_call_seconds(fn, repeats: int) -> float:
    """Minimum wall time over ``repeats`` calls (noise-free estimate)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_size(
    n_states: int, votes: int, repeats: int, seed: int
) -> Dict[str, object]:
    """Scalar-vs-vectorized vote timings for one space size."""
    space = build_space(n_states, seed=seed)
    rng = np.random.default_rng(seed + 1)
    candidates = rng.uniform(-0.2, 1.2, size=(votes, 2))

    # Equivalence is part of the bench contract: a fast wrong answer
    # must fail loudly, not produce a flattering speedup.
    vec_vote = space.violation_vote(candidates)
    scalar_vote = violation_vote_scalar(space, candidates)
    if vec_vote != scalar_vote:
        raise AssertionError(
            f"vote mismatch at n={n_states}: vectorized {vec_vote} "
            f"!= scalar {scalar_vote}"
        )

    # One-off rebuild price (what an invalidation event costs).
    def rebuild():
        space.invalidate_geometry()
        space.geometry()

    rebuild_s = _best_call_seconds(rebuild, repeats)

    # Steady state: cache warm on the vectorized side.
    space.geometry()
    vectorized_s = _best_call_seconds(
        lambda: space.violation_vote(candidates), repeats
    )
    scalar_s = _best_call_seconds(
        lambda: violation_vote_scalar(space, candidates), repeats
    )
    return {
        "n_states": n_states,
        "n_violations": int(space.violation_indices.size),
        "votes": votes,
        "vote_count": vec_vote,
        "scalar_us": round(scalar_s * 1e6, 3),
        "vectorized_us": round(vectorized_s * 1e6, 3),
        "rebuild_us": round(rebuild_s * 1e6, 3),
        "speedup": round(scalar_s / vectorized_s, 2) if vectorized_s else 0.0,
    }


def run_experiment(
    out,
    sizes: Sequence[int] = DEFAULT_SIZES,
    votes: int = DEFAULT_VOTES,
    repeats: int = DEFAULT_REPEATS,
    threshold: float = THRESHOLD_SPEEDUP,
) -> Dict[str, object]:
    """Sweep the sizes, write the BENCH json; returns the report.

    The pass criterion is the speedup at the reference size (500
    states, or the largest measured size if 500 is not in the sweep).
    """
    # Warmup: numpy first-touch costs must not land on the first size.
    measure_size(min(sizes), votes=votes, repeats=1, seed=99)

    results: List[Dict[str, object]] = [
        measure_size(n, votes=votes, repeats=repeats, seed=7 + i)
        for i, n in enumerate(sorted(sizes))
    ]
    reference = max(
        (r for r in results),
        key=lambda r: (r["n_states"] == REFERENCE_SIZE, r["n_states"]),
    )
    report = {
        "bench": "geometry",
        "votes": votes,
        "repeats": repeats,
        "results": results,
        "reference_n_states": reference["n_states"],
        "reference_speedup": reference["speedup"],
        "threshold_speedup": threshold,
        "passed": reference["speedup"] >= threshold,
    }
    report["out"] = write_report(report, out)
    return report


def _print_report(report: Dict[str, object]) -> None:
    print("Perf - violation vote, cached vectorized geometry vs scalar")
    print(f"  candidates per vote       : {report['votes']}")
    for row in report["results"]:
        print(
            f"  n={row['n_states']:5d} ({row['n_violations']:4d} viol)  "
            f"scalar {row['scalar_us']:10.1f} us  "
            f"vectorized {row['vectorized_us']:8.1f} us  "
            f"rebuild {row['rebuild_us']:8.1f} us  "
            f"speedup {row['speedup']:7.1f}x"
        )
    print(
        f"  reference speedup         : {report['reference_speedup']:.1f}x "
        f"at n={report['reference_n_states']} "
        f"(budget >= {report['threshold_speedup']}x)"
    )
    print(f"  report written to {report['out']}")


def test_geometry_speedup(benchmark, capsys, tmp_path):
    report = benchmark.pedantic(
        run_experiment, args=(tmp_path / "BENCH_geometry.json",), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        _print_report(report)
    assert Path(report["out"]).exists()
    assert report["passed"], (
        f"speedup {report['reference_speedup']:.1f}x at "
        f"n={report['reference_n_states']} below the "
        f"{report['threshold_speedup']}x budget"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark cached vectorized violation geometry vs scalar"
    )
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
                        help="state-space sizes to sweep")
    parser.add_argument("--votes", type=int, default=DEFAULT_VOTES,
                        help="candidate points per violation_vote call")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="timed calls per measurement (best kept)")
    parser.add_argument("--threshold", type=float, default=THRESHOLD_SPEEDUP,
                        help="fail below this speedup at the reference size")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)
    report = run_experiment(
        args.out, sizes=args.sizes, votes=args.votes, repeats=args.repeats,
        threshold=args.threshold,
    )
    _print_report(report)
    if not report["passed"]:
        print(f"FAIL: speedup below {args.threshold}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
