"""Property: hybrid-mode runs are tick-for-tick reproducible.

The GMM vote adds a second learner to the controller's predict stage;
if either learner consumed unseeded randomness (or probed state out of
order), two runs of the same scenario would desync. Given a fixed
seed, every observable stream — alarms, QoS, throttles, learned
fences — must be bit-identical across runs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.gmm_threshold import GmmSettings
from repro.core.config import StayAwayConfig
from repro.experiments.runner import run_gmm, run_scenario
from repro.experiments.scenarios import Scenario

BATCHES = st.sampled_from([("cpubomb",), ("twitter-analysis",), ("soplex", "cpubomb")])


def _scenario(seed, batches, ticks=160):
    return Scenario(
        sensitive="vlc-streaming", batches=batches, ticks=ticks, seed=seed
    )


class TestHybridReproducibility:
    @given(seed=st.integers(0, 10_000), batches=BATCHES)
    @settings(max_examples=8, deadline=None)
    def test_hybrid_runs_identical_given_seed(self, seed, batches):
        config = StayAwayConfig(seed=seed)
        settings = GmmSettings(min_samples=20, refit_interval=10)

        def observables():
            result = run_scenario(
                _scenario(seed, batches), policy="hybrid", config=config,
                gmm_settings=settings,
            )
            controller = result.controller
            return (
                controller.alarm_ticks,
                list(result.qos.violation_ticks),
                result.qos_values().tolist(),
                controller.throttle.throttle_count,
                controller.throttle.resume_count,
                controller.aux_detector.thresholds(),
            )

        assert observables() == observables()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_gmm_shadow_runs_identical_given_seed(self, seed):
        config = StayAwayConfig(enabled=False, seed=seed)

        def observables():
            result = run_gmm(_scenario(seed, ("twitter-analysis",)), config=config)
            return (
                result.gmm.alarm_ticks,
                result.gmm.model.thresholds(),
                list(result.qos.violation_ticks),
            )

        assert observables() == observables()
