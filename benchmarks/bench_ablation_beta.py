"""Ablation — the learned resume threshold beta.

§3.3: beta starts at 0.01 and is incremented whenever a resume
immediately leads back to a violation. This bench compares the paper's
learning beta against fixed settings: a tiny fixed beta resumes on
noise (violations), a huge fixed beta barely ever resumes (starved
batch); learning anneals to a workable threshold automatically.
"""

from repro.analysis.reports import ascii_table
from repro.core.config import StayAwayConfig

from benchmarks.helpers import banner, get_run

VARIANTS = {
    "learning (paper)": dict(beta_initial=0.01, beta_increment=0.005),
    "fixed tiny": dict(beta_initial=0.001, beta_increment=0.0),
    "fixed huge": dict(beta_initial=5.0, beta_increment=0.0),
}


def run_experiment():
    results = {}
    for name, kwargs in VARIANTS.items():
        config = StayAwayConfig(seed=0, **kwargs)
        results[name] = get_run(
            "stayaway", "webservice-cpu", ("twitter-analysis",), config=config
        )
    return results


def test_ablation_beta_learning(capsys):
    results = run_experiment()

    rows = []
    for name, run in results.items():
        controller = run.controller
        rows.append([
            name,
            f"{controller.throttle.beta:.3f}",
            f"{run.violation_ratio():.2%}",
            f"{run.batch_work_done():.0f}",
            controller.throttle.resume_count,
            controller.throttle.probe_resume_count,
        ])

    with capsys.disabled():
        print(banner("Ablation - resume threshold beta"))
        print(ascii_table(
            ["beta policy", "final beta", "violations", "batch work",
             "resumes", "probe resumes"],
            rows,
        ))

    learning = results["learning (paper)"]
    tiny = results["fixed tiny"]
    huge = results["fixed huge"]

    # The learning beta grows beyond its initial value when noise
    # triggers premature resumes.
    assert learning.controller.throttle.beta >= 0.01
    # A huge fixed beta never fires phase-change resumes: every resume
    # is a starvation probe.
    assert (
        huge.controller.throttle.resume_count
        == huge.controller.throttle.probe_resume_count
    )
    # The tiny fixed beta resumes on noise: far more resumes, far more
    # violations than the learning policy — the failure mode beta
    # learning exists to prevent.
    assert tiny.controller.throttle.resume_count > 2 * learning.controller.throttle.resume_count
    assert tiny.violation_ratio() > 2 * learning.violation_ratio()
    # The learning policy (and the conservative one) keep QoS protected.
    assert learning.violation_ratio() < 0.1
    assert huge.violation_ratio() < 0.1
    # ...but the conservative policy starves the batch job relative to
    # what noise-resume recklessly achieves.
    assert huge.batch_work_done() < tiny.batch_work_done()
