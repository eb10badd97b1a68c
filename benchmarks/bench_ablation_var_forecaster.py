"""Ablation — high-dimensional VAR vs the paper's 2-D representation.

§3.1's motivation for the 2-D mapping: "A natural technique for
forecasting in high dimensions is Vector Autoregressive Models (VAR).
In high dimensional spaces, the number of samples needed for a reliable
estimation of parameters ... increases exponentially with the
dimensionality ... leading to unreliable parameter estimation."

We run walk-forward one-step VAR(1) forecasting with a small online
training window (the honest runtime-controller regime) on the same run
twice — on the raw 10-D normalized metric series and on the 2-D mapped
trajectory — and score each against the *persistence* forecast
(predict "no change"), the standard skill reference. Skill > 1 means
the model is worse than doing nothing.
"""

import numpy as np

from repro.analysis.reports import ascii_table
from repro.trajectory.var import rolling_var_forecast_error

from benchmarks.helpers import banner, get_run


def persistence_skill(series: np.ndarray, train_window: int) -> float:
    """median(VAR one-step error) / median(persistence error)."""
    var_errors = rolling_var_forecast_error(series, train_window=train_window)
    persistence = np.linalg.norm(np.diff(series, axis=0), axis=1)[train_window:]
    n = min(len(var_errors), len(persistence))
    if n == 0:
        return float("inf")
    return float(
        np.median(var_errors[:n]) / max(np.median(persistence[:n]), 1e-12)
    )


def run_experiment():
    run = get_run("stayaway", "vlc-streaming", ("twitter-analysis",))
    controller = run.controller

    raw = np.vstack([sample.values for sample in controller.collector.samples])
    normalizer = controller.mapping.normalizer
    high_dim = np.vstack([normalizer.normalize(row) for row in raw])
    low_dim = np.vstack([point.coords for point in controller.trajectory])

    window = 25
    return {
        "run": run,
        "window": window,
        "high_skill": persistence_skill(high_dim, window),
        "low_skill": persistence_skill(low_dim, window),
        "high_params": (1 * high_dim.shape[1] + 1) * high_dim.shape[1],
        "low_params": (1 * 2 + 1) * 2,
    }


def test_ablation_var_forecaster(capsys):
    results = run_experiment()

    rows = [
        ["VAR(1) on raw 10-D metrics", results["high_params"],
         f"{results['high_skill']:.2f}"],
        ["VAR(1) on 2-D mapped states", results["low_params"],
         f"{results['low_skill']:.2f}"],
    ]
    with capsys.disabled():
        print(banner(
            "Ablation - forecasting dimensionality "
            f"(walk-forward VAR(1), train window {results['window']})"
        ))
        print(ascii_table(
            ["forecaster", "free params",
             "skill vs persistence (lower=better, >1 = worse than no-op)"],
            rows,
        ))
        accuracy = results["run"].controller.predictor.outcome_accuracy()
        print(f"for reference: the paper's 2-D histogram sampler reaches "
              f"{accuracy:.1%} outcome accuracy on this run")

    # Parameter explosion: 10-D VAR has >10x the free parameters.
    assert results["high_params"] > 10 * results["low_params"]
    # §3.1's claim, measured: the high-dimensional VAR is markedly less
    # reliable than the low-dimensional one under small online samples.
    assert results["high_skill"] > 1.3 * results["low_skill"]
    # And the high-dimensional VAR is genuinely unreliable — worse than
    # the persistence no-op.
    assert results["high_skill"] > 1.2
