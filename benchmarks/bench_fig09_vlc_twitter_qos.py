"""Fig. 9 — Normalized QoS of VLC streaming co-located with Twitter-Analysis.

Paper shape: the phase-rich batch application causes violations
whenever its CPU-heavy phase coincides with the streaming peak; with
Stay-Away violations collapse to the early learning phase.
"""

from benchmarks.helpers import banner, get_trio, qos_strip, summarize_qos


def run_experiment():
    return get_trio("vlc-streaming", ("twitter-analysis",))


def test_fig09_vlc_with_twitter_qos(capsys):
    trio = run_experiment()
    unmanaged = trio.unmanaged
    stayaway = trio.stayaway

    with capsys.disabled():
        print(banner("Fig. 9 - VLC streaming QoS co-located with Twitter-Analysis"))
        print("QoS deficit strips (darker = worse QoS); threshold = 0.95")
        print(f"  without Stay-Away: {qos_strip(unmanaged)}")
        print(f"  with    Stay-Away: {qos_strip(stayaway)}")
        print(summarize_qos(unmanaged))
        print(summarize_qos(stayaway))

    # Paper shape: substantial violations unmanaged, few with Stay-Away.
    assert unmanaged.violation_ratio() > 0.15
    assert stayaway.violation_ratio() < 0.08
    assert stayaway.violation_ratio() < unmanaged.violation_ratio() / 3
    assert stayaway.qos_values().mean() > 0.97
