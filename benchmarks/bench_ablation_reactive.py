"""Ablation — predictive Stay-Away vs a reactive-only throttler.

The reactive baseline throttles only after an observed violation and
resumes on a fixed cooldown; its violation/throughput trade-off is set
by the cooldown knob. Stay-Away needs no such knob: its learned map,
prediction and phase-aware resume land on (or beyond) the reactive
frontier without tuning.
"""

from repro.analysis.reports import ascii_table

from benchmarks.helpers import banner, get_run

COOLDOWNS = [3, 10, 40]


def run_experiment():
    reactive_runs = {
        cooldown: get_run(
            "reactive", "vlc-streaming", ("twitter-analysis",), cooldown=cooldown
        )
        for cooldown in COOLDOWNS
    }
    stayaway = get_run("stayaway", "vlc-streaming", ("twitter-analysis",))
    return reactive_runs, stayaway


def test_ablation_reactive_frontier(capsys):
    reactive_runs, stayaway = run_experiment()

    rows = []
    for cooldown, run in reactive_runs.items():
        rows.append([
            f"reactive cd={cooldown}",
            f"{run.violation_ratio():.2%}",
            f"{run.batch_work_done():.0f}",
        ])
    rows.append([
        "stay-away",
        f"{stayaway.violation_ratio():.2%}",
        f"{stayaway.batch_work_done():.0f}",
    ])

    with capsys.disabled():
        print(banner("Ablation - predictive vs reactive throttling"))
        print(ascii_table(["policy", "violations", "batch work"], rows))
        print("(reactive trades violations for throughput via its cooldown; "
              "Stay-Away hits the frontier with no knob)")

    # Short-cooldown reactive: more work but far more violations.
    short = reactive_runs[min(COOLDOWNS)]
    assert short.violation_ratio() > 2 * stayaway.violation_ratio()

    # Long-cooldown reactive: comparable violations, no more work than
    # twice Stay-Away's - i.e. Stay-Away is frontier-competitive.
    long = reactive_runs[max(COOLDOWNS)]
    assert stayaway.batch_work_done() > 0.5 * long.batch_work_done()

    # Work-matched point (cooldown=10): Stay-Away violates less at
    # comparable throughput.
    matched = reactive_runs[10]
    assert stayaway.batch_work_done() > 0.7 * matched.batch_work_done()
    assert stayaway.violation_ratio() < matched.violation_ratio()
