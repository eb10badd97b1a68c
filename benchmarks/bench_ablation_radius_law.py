"""Ablation — Rayleigh-scaled violation-range radius vs fixed radius.

§3.2.2 motivates the adaptive radius: "a violation-range with a big
radius would lead to aggressively throttling batch applications and a
violation-range with a very small radius could lead to multiple QoS
violations". The fixed-radius ablation exposes exactly that trade-off;
the Rayleigh law lands a good balance without hand-tuning.
"""

from repro.analysis.reports import ascii_table
from repro.core.config import StayAwayConfig

from benchmarks.helpers import banner, get_run

VARIANTS = [
    ("rayleigh", None),
    ("fixed-tiny", 0.005),
    ("fixed-medium", 0.05),
    ("fixed-huge", 0.5),
]


def run_experiment():
    results = {}
    for name, radius in VARIANTS:
        if radius is None:
            config = StayAwayConfig(radius_law="rayleigh", seed=0)
        else:
            config = StayAwayConfig(radius_law="fixed", fixed_radius=radius, seed=0)
        results[name] = get_run(
            "stayaway", "vlc-streaming", ("twitter-analysis",), config=config
        )
    return results


def test_ablation_radius_law(capsys):
    results = run_experiment()

    rows = []
    for name, run in results.items():
        rows.append([
            name,
            f"{run.violation_ratio():.2%}",
            f"{run.batch_work_done():.0f}",
            run.controller.throttle.throttle_count,
        ])

    with capsys.disabled():
        print(banner("Ablation - violation-range radius law"))
        print(ascii_table(
            ["radius law", "violations", "batch work", "throttles"], rows
        ))
        print("(tiny radius -> violations; huge radius -> starved batch; "
              "Rayleigh balances both)")

    rayleigh = results["rayleigh"]
    tiny = results["fixed-tiny"]
    huge = results["fixed-huge"]

    # A huge fixed radius is overly conservative: it throttles more
    # aggressively and the batch app gets less work than under Rayleigh.
    assert huge.batch_work_done() <= rayleigh.batch_work_done()
    # A tiny fixed radius cannot absorb near-miss states: it admits at
    # least as many violations as the Rayleigh law.
    assert tiny.violation_ratio() >= rayleigh.violation_ratio() * 0.9
    # The Rayleigh law keeps QoS protected.
    assert rayleigh.violation_ratio() < 0.08
