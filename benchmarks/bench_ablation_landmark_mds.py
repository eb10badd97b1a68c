"""Ablation — full SMACOF vs landmark MDS (§4's fast alternative).

The paper's own optimization is representative-sample dedup; it also
points at incremental/landmark MDS variants "with high performance and
very low overhead". This bench compares embedding cost and distance
fidelity of full SMACOF against landmark MDS on real measurement
vectors collected from a co-located run.
"""

import time

import numpy as np

from repro.analysis.reports import ascii_table
from repro.mds.distances import pairwise_distances
from repro.mds.landmark import landmark_mds_fit
from repro.mds.smacof import smacof

from benchmarks.helpers import banner, get_run


def distance_correlation(points_high, coords):
    original = pairwise_distances(points_high)
    embedded = pairwise_distances(coords)
    triu = np.triu_indices(points_high.shape[0], k=1)
    return float(np.corrcoef(original[triu], embedded[triu])[0, 1])


def run_experiment():
    run = get_run("stayaway", "webservice-memory", ("twitter-analysis",))
    controller = run.controller
    raw = np.vstack([sample.values for sample in controller.collector.samples])
    normalizer = controller.mapping.normalizer
    normalized = np.vstack([normalizer.normalize(row) for row in raw])
    # Subsample to a size where full SMACOF is still measurable quickly.
    points = normalized[::3][:300]

    start = time.perf_counter()
    target = pairwise_distances(points)
    full = smacof(target, n_components=2, max_iter=60)
    full_seconds = time.perf_counter() - start
    full_corr = distance_correlation(points, full.embedding)

    start = time.perf_counter()
    landmark_coords = landmark_mds_fit(points, k=20, seed=0)
    landmark_seconds = time.perf_counter() - start
    landmark_corr = distance_correlation(points, landmark_coords)

    return {
        "n": points.shape[0],
        "full_seconds": full_seconds,
        "full_corr": full_corr,
        "landmark_seconds": landmark_seconds,
        "landmark_corr": landmark_corr,
    }


def test_ablation_landmark_mds(capsys):
    results = run_experiment()

    rows = [
        ["full SMACOF", f"{results['full_seconds']*1000:.1f} ms",
         f"{results['full_corr']:.4f}"],
        ["landmark MDS (k=20)", f"{results['landmark_seconds']*1000:.1f} ms",
         f"{results['landmark_corr']:.4f}"],
    ]
    with capsys.disabled():
        print(banner(f"Ablation - landmark MDS vs full SMACOF "
                     f"(n={results['n']} measurement vectors)"))
        print(ascii_table(["method", "embed time", "distance correlation"], rows))

    # Landmark MDS is much cheaper...
    assert results["landmark_seconds"] < results["full_seconds"] / 2
    # ...while preserving the distance structure nearly as well.
    assert results["landmark_corr"] > 0.9
    assert results["full_corr"] > 0.9
