"""Fig. 18 — Template reuse: the VLC map captured alongside CPUBomb
(Fig. 17) is loaded as the initial state for VLC alongside a
*different* batch application, with Stay-Away's actions disabled.

Paper shape: the new run maps new states, but its violations land in
the area already characterised as the violation region by the
template — the captured states are a property of the sensitive
application's resource-level load, not of the specific co-tenant.
"""

import numpy as np

from repro.analysis.reports import render_scatter
from repro.core.config import StayAwayConfig
from repro.core.state_space import StateLabel

from benchmarks.helpers import banner, get_run


def run_experiment():
    capture = get_run("stayaway", "vlc-streaming", ("cpubomb",))
    template = capture.controller.export_template()
    # Reuse with a different batch app, actions disabled (§7.3).
    reuse = get_run(
        "stayaway",
        "vlc-streaming",
        ("twitter-analysis",),
        seed=1,
        config=StayAwayConfig(enabled=False, seed=1),
        template=template,
    )
    return template, reuse


def test_fig18_template_reuse(capsys):
    template, reuse = run_experiment()
    controller = reuse.controller
    space = controller.state_space
    n_template = template.representatives.shape[0]

    template_violations = [
        i for i in space.violation_indices if i < n_template
    ]
    new_violations = [i for i in space.violation_indices if i >= n_template]

    markers = []
    for i, label in enumerate(space.labels):
        if label is StateLabel.VIOLATION:
            markers.append("V" if i < n_template else "W")
        else:
            markers.append("." if i < n_template else "+")

    # Distance from each new violation to the template violation region.
    template_violation_coords = (
        space.coords[template_violations]
        if template_violations
        else np.empty((0, 2))
    )
    distances_to_region = []
    for i in new_violations:
        if template_violation_coords.size:
            distances_to_region.append(
                float(np.min(np.linalg.norm(
                    template_violation_coords - space.coords[i], axis=1
                )))
            )

    with capsys.disabled():
        print(banner("Fig. 18 - template reused: VLC + Twitter-Analysis, actions off"))
        print("  .=template safe  V=template violation  +=new safe  W=new violation")
        for row in render_scatter(space.coords, markers, width=84, height=18):
            print(f"  {row}")
        extent = float(np.linalg.norm(
            space.coords.max(axis=0) - space.coords.min(axis=0)
        ))
        print(f"template states: {n_template} ({len(template_violations)} violations)")
        print(f"new states     : {len(space) - n_template} "
              f"({len(new_violations)} new violation states)")
        if distances_to_region:
            print(f"new violations' distance to template violation region: "
                  f"median {np.median(distances_to_region):.3f} "
                  f"(map extent {extent:.3f})")

    # Template violations were reused (they stayed in the map).
    assert len(template_violations) >= 1
    # The new co-location violated (actions were disabled).
    assert controller.qos.violation_count > 0

    # Core §6 claim: violations under the new batch app land near the
    # template's violation region (within a small fraction of the map).
    extent = float(np.linalg.norm(
        space.coords.max(axis=0) - space.coords.min(axis=0)
    ))
    if distances_to_region:
        assert np.median(distances_to_region) < 0.25 * extent

    # New violations sit closer to the template's violation region than
    # to the template's safe region — the template transfers.
    template_safe = [i for i in space.safe_indices if i < n_template]
    if distances_to_region and template_safe:
        safe_coords = space.coords[template_safe]
        distances_to_safe = [
            float(np.min(np.linalg.norm(safe_coords - space.coords[i], axis=1)))
            for i in new_violations
        ]
        assert np.median(distances_to_region) < np.median(distances_to_safe)
