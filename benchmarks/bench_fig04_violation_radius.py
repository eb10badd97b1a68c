"""Fig. 4 — Violation-range radius vs distance to the nearest safe-state.

Regenerates the paper's radius curve R(d) = d * exp(-d^2 / (2 c^2)):
growing while safe territory is far, peaking at d = c, fading as safe
states crowd in.
"""

import numpy as np

from repro.core.state_space import violation_range_radius

from benchmarks.helpers import banner


def build_curve(c: float = 0.5, points: int = 200):
    distances = np.linspace(0.0, 4.0 * c, points)
    radii = np.array([violation_range_radius(d, c) for d in distances])
    return distances, radii


def test_fig04_violation_range_radius(capsys):
    distances, radii = build_curve()
    c = 0.5

    peak_index = int(np.argmax(radii))
    peak_distance = distances[peak_index]
    peak_radius = radii[peak_index]

    with capsys.disabled():
        print(banner("Fig. 4 - violation-range radius R(d) = d*exp(-d^2/2c^2), c=0.5"))
        rows = []
        for d in [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]:
            rows.append(f"  d={d:4.2f}  R={violation_range_radius(d, c):.4f}")
        print("\n".join(rows))
        print(f"peak at d={peak_distance:.3f} (theory: d=c={c}), R={peak_radius:.4f} "
              f"(theory: c*e^-0.5={c*np.exp(-0.5):.4f})")

    # Shape: unimodal with the Rayleigh peak at d=c.
    assert abs(peak_distance - c) < 0.05
    assert abs(peak_radius - c * np.exp(-0.5)) < 1e-3
    assert np.all(np.diff(radii[:peak_index]) > 0)       # rising before peak
    assert np.all(np.diff(radii[peak_index + 5:]) < 0)   # fading after peak
    assert radii[-1] < 0.05 * peak_radius                # fades to ~0
