"""Fig. 17 — Template capture: VLC streaming + CPUBomb with Stay-Away
active.

The captured map (safe states + violation states + learned beta) is
the template reused in Fig. 18 for a different batch co-location.
"""

import numpy as np

from repro.analysis.reports import render_scatter
from repro.core.state_space import StateLabel

from benchmarks.helpers import banner, get_run


def run_experiment():
    run = get_run("stayaway", "vlc-streaming", ("cpubomb",))
    template = run.controller.export_template(
        sensitive="vlc-streaming", batch="cpubomb"
    )
    return run, template


def test_fig17_template_capture(capsys):
    run, template = run_experiment()
    controller = run.controller

    markers = [
        "V" if label is StateLabel.VIOLATION else "."
        for label in controller.state_space.labels
    ]

    with capsys.disabled():
        print(banner("Fig. 17 - template captured from VLC + CPUBomb"))
        print("  .=safe state  V=violation state")
        for row in render_scatter(
            controller.state_space.coords, markers, width=84, height=18
        ):
            print(f"  {row}")
        print(f"template: {template.representatives.shape[0]} states, "
              f"{template.violation_count} violation states, "
              f"beta={template.beta:.3f}")

    # The template is non-trivial: it learned real violation states.
    assert template.violation_count >= 1
    assert template.representatives.shape[0] >= 5
    # The violation states form a distinct region of the map.
    violation_coords = controller.state_space.coords[
        controller.state_space.violation_indices
    ]
    safe_coords = controller.state_space.coords[
        controller.state_space.safe_indices
    ]
    violation_centroid = violation_coords.mean(axis=0)
    nearest_safe = np.min(
        np.linalg.norm(safe_coords - violation_centroid, axis=1)
    )
    assert nearest_safe > 0.0
    # Serialization roundtrip preserves the map.
    restored = type(template).from_dict(template.to_dict())
    np.testing.assert_allclose(restored.coords, template.coords)
