"""Fig. 8 — Normalized QoS of VLC streaming co-located with CPUBomb.

Paper shape: without Stay-Away the transcoding rate sits below the QoS
threshold for most of the run ("numerous violations"); with Stay-Away
the rate stays above threshold except for a learning transient at the
start and rare instantaneous spikes.
"""

from benchmarks.helpers import banner, get_trio, qos_strip, summarize_qos


def run_experiment():
    return get_trio("vlc-streaming", ("cpubomb",))


def test_fig08_vlc_with_cpubomb_qos(capsys):
    trio = run_experiment()
    unmanaged = trio.unmanaged
    stayaway = trio.stayaway

    with capsys.disabled():
        print(banner("Fig. 8 - VLC streaming QoS co-located with CPUBomb"))
        print("QoS deficit strips (darker = worse QoS); threshold = 0.95")
        print(f"  without Stay-Away: {qos_strip(unmanaged)}")
        print(f"  with    Stay-Away: {qos_strip(stayaway)}")
        print(summarize_qos(unmanaged))
        print(summarize_qos(stayaway))
        violations = stayaway.qos.violation_ticks
        early = sum(1 for tick in violations if tick < 300)
        print(
            f"stayaway violations in first quarter: {early}/{len(violations)} "
            "(paper: 'most violations seen are in the early phase')"
        )

    # Paper shape: unmanaged violates massively, Stay-Away rarely.
    assert unmanaged.violation_ratio() > 0.5
    assert stayaway.violation_ratio() < 0.1
    assert stayaway.violation_ratio() < unmanaged.violation_ratio() / 5
    # Mean QoS restored close to full service.
    assert stayaway.qos_values().mean() > 0.97
