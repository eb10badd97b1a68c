"""Fig. 11 — Gained utilization with Twitter-Analysis.

Paper shape: Stay-Away retains a large share of the co-location gain
(paper reports ~50% average machine-utilization gain vs the isolated
run) because Twitter-Analysis is throttled only in its harmful phases.
"""

from benchmarks.helpers import banner, gain_strip, get_trio


def run_experiment():
    return get_trio("vlc-streaming", ("twitter-analysis",))


def test_fig11_gained_utilization_twitter(capsys):
    trio = run_experiment()
    comparison = trio.utilization

    with capsys.disabled():
        print(banner("Fig. 11 - gained utilization, VLC + Twitter-Analysis"))
        print("gain strips (darker = more gained utilization, 0-100pp)")
        print(f"  upper band (no prevention): {gain_strip(comparison.unmanaged_series)}")
        print(f"  lower band (Stay-Away)    : {gain_strip(comparison.stayaway_series)}")
        print(f"mean gain without prevention: {comparison.unmanaged_gain_mean:5.1f} pp")
        print(f"mean gain with Stay-Away    : {comparison.stayaway_gain_mean:5.1f} pp")
        relative = (
            comparison.stayaway_gain_mean / (comparison.isolated_mean * 100.0)
            if comparison.isolated_mean > 0
            else 0.0
        )
        print(f"relative gain vs isolated utilization: {relative:.0%} "
              "(paper: ~50% average)")

    # Paper shape: Twitter-Analysis yields a real, substantial gain.
    assert comparison.stayaway_gain_mean > 8.0
    assert comparison.gain_capture_ratio > 0.25
    # ...while QoS is protected (Fig. 9 shape).
    assert trio.stayaway.violation_ratio() < 0.08


def test_fig10_vs_fig11_ordering(capsys):
    """Cross-figure shape: Twitter gain >> CPUBomb gain (Figs. 10-11)."""
    twitter = get_trio("vlc-streaming", ("twitter-analysis",))
    cpubomb = get_trio("vlc-streaming", ("cpubomb",))
    with capsys.disabled():
        print(banner("Figs. 10 vs 11 - gain ordering"))
        print(f"Stay-Away gain with Twitter-Analysis: "
              f"{twitter.utilization.stayaway_gain_mean:5.1f} pp")
        print(f"Stay-Away gain with CPUBomb         : "
              f"{cpubomb.utilization.stayaway_gain_mean:5.1f} pp")
    assert (
        twitter.utilization.stayaway_gain_mean
        > 3 * cpubomb.utilization.stayaway_gain_mean
    )
