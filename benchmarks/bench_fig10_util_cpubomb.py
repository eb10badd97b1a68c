"""Fig. 10 — Gained utilization with CPUBomb.

Paper shape: the upper band (no prevention) shows the full utilization
CPUBomb would add; the Stay-Away band collapses to sparse spikes
because "CPUBomb constantly contends for CPU and does not experience
any phase transition" — the gain is only ~5%.
"""

from benchmarks.helpers import banner, gain_strip, get_trio


def run_experiment():
    return get_trio("vlc-streaming", ("cpubomb",))


def test_fig10_gained_utilization_cpubomb(capsys):
    trio = run_experiment()
    comparison = trio.utilization

    with capsys.disabled():
        print(banner("Fig. 10 - gained utilization, VLC + CPUBomb"))
        print("gain strips (darker = more gained utilization, 0-100pp)")
        print(f"  upper band (no prevention): {gain_strip(comparison.unmanaged_series)}")
        print(f"  lower band (Stay-Away)    : {gain_strip(comparison.stayaway_series)}")
        print(f"mean gain without prevention: {comparison.unmanaged_gain_mean:5.1f} pp")
        print(f"mean gain with Stay-Away    : {comparison.stayaway_gain_mean:5.1f} pp "
              "(paper: ~5%)")
        spikes = (comparison.stayaway_series > 5.0).mean()
        print(f"Stay-Away gain is in spikes : {spikes:.1%} of ticks above 5pp")

    # Paper shape: tiny gain vs the unmanaged upper band.
    assert comparison.stayaway_gain_mean < 8.0
    assert comparison.unmanaged_gain_mean > 25.0
    assert comparison.gain_capture_ratio < 0.25
    # And the QoS price of the upper band was unacceptable (Fig. 8).
    assert trio.unmanaged.violation_ratio() > 0.5
