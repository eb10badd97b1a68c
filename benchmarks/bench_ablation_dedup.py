"""Ablation — dedup epsilon vs map size, cost and mapping quality.

§4's representative-sample reduction: larger epsilon = smaller SMACOF
observation matrix (cheaper) but coarser states. The sweep shows the
cost/fidelity trade-off and that the default (0.03 in normalized
metric space) preserves control quality.
"""

import time

from repro.analysis.reports import ascii_table
from repro.core.config import StayAwayConfig

from benchmarks.helpers import banner, get_run

EPSILONS = [0.0, 0.01, 0.03, 0.1]


def run_experiment():
    results = {}
    for epsilon in EPSILONS:
        config = StayAwayConfig(dedup_epsilon=epsilon, seed=0)
        start = time.perf_counter()
        run = get_run(
            "stayaway", "vlc-streaming", ("twitter-analysis",),
            ticks=600, config=config,
        )
        elapsed = time.perf_counter() - start
        results[epsilon] = (run, elapsed)
    return results


def test_ablation_dedup_epsilon(capsys):
    results = run_experiment()

    rows = []
    for epsilon, (run, elapsed) in results.items():
        space = run.controller.state_space
        rows.append([
            f"{epsilon:.2f}",
            len(space),
            f"{space.representatives.compression_ratio():.1f}x",
            f"{space.stress():.4f}",
            f"{run.violation_ratio():.2%}",
            f"{elapsed:.1f}s",
        ])

    with capsys.disabled():
        print(banner("Ablation - dedup epsilon (VLC + Twitter, 600 ticks)"))
        print(ascii_table(
            ["epsilon", "states", "compression", "map stress",
             "violations", "run time"],
            rows,
        ))

    # Larger epsilon monotonically shrinks the observation matrix.
    sizes = [len(results[e][0].controller.state_space) for e in EPSILONS]
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))
    # The no-dedup run keeps every distinct sample (hundreds of states).
    assert sizes[0] > 5 * sizes[2]
    # Control quality survives the default epsilon.
    assert results[0.03][0].violation_ratio() < 0.1
    # The no-dedup run is dramatically more expensive.
    assert results[0.0][1] > 2 * results[0.03][1]
