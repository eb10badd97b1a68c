"""Unit tests for the GMM threshold-learning detector."""

import dataclasses

import numpy as np
import pytest

from repro.baselines.gmm_threshold import (
    GmmSettings,
    GmmThresholdDetector,
    GmmThresholdModel,
    fence_threshold,
    fit_gmm_1d,
    select_gmm,
)
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.host import Host
from repro.sim.resources import ResourceVector
from repro.workloads.base import ApplicationKind

from tests.conftest import ConstantApp, SensitiveStub


def bimodal(n=200, seed=42):
    rng = np.random.default_rng(seed)
    return np.concatenate([
        rng.normal(1.0, 0.1, n // 2), rng.normal(3.0, 0.1, n - n // 2)
    ])


class TestFitGmm1d:
    def test_deterministic_given_seed(self):
        data = bimodal()
        first = fit_gmm_1d(data, 2, seed=7)
        second = fit_gmm_1d(data, 2, seed=7)
        assert np.array_equal(first.means, second.means)
        assert np.array_equal(first.variances, second.variances)
        assert np.array_equal(first.weights, second.weights)
        assert first.log_likelihood == second.log_likelihood

    def test_recovers_bimodal_components(self):
        gmm = fit_gmm_1d(bimodal(), 2, seed=0)
        assert gmm.k == 2
        assert gmm.means[0] == pytest.approx(1.0, abs=0.1)
        assert gmm.means[1] == pytest.approx(3.0, abs=0.1)

    def test_components_sorted_by_mean(self):
        gmm = fit_gmm_1d(bimodal(), 3, seed=0)
        assert np.all(np.diff(gmm.means) >= 0)

    def test_constant_data_degenerate_fit(self):
        # A constant buffer must fit cleanly: variance floored, one
        # effective mode, no NaNs anywhere.
        gmm = fit_gmm_1d([2.0] * 50, 1, seed=0)
        assert gmm.means[0] == pytest.approx(2.0)
        assert gmm.variances[0] > 0
        assert np.isfinite(gmm.log_likelihood)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            fit_gmm_1d([1.0, 2.0], 0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_gmm_1d([1.0, 2.0], 3)


class TestSelectGmm:
    def test_bic_picks_two_for_bimodal(self):
        assert select_gmm(bimodal(), max_components=3, seed=0).k == 2

    def test_constant_buffer_capped_at_one_component(self):
        gmm = select_gmm([5.0] * 80, max_components=3, seed=0)
        assert gmm.k == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_gmm([])

    def test_deterministic_given_seed(self):
        data = bimodal(seed=3)
        first = select_gmm(data, seed=11)
        second = select_gmm(data, seed=11)
        assert np.array_equal(first.means, second.means)
        assert first.bic() == second.bic()


class TestFenceThreshold:
    def test_single_component_outlier_bound(self):
        gmm = fit_gmm_1d(np.random.default_rng(0).normal(1.0, 0.2, 100), 1, seed=0)
        fence = fence_threshold(gmm, span=3.0)
        std = float(np.sqrt(gmm.variances[0]))
        assert fence == pytest.approx(float(gmm.means[0]) + 3.0 * std)

    def test_two_components_fence_between_modes(self):
        gmm = select_gmm(bimodal(), seed=0)
        fence = fence_threshold(gmm, span=3.0)
        assert gmm.means[0] < fence <= gmm.means[1]

    def test_monotone_in_span(self):
        gmm = select_gmm(bimodal(), seed=0)
        fences = [fence_threshold(gmm, span=s) for s in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(b >= a for a, b in zip(fences, fences[1:]))

    def test_span_validated(self):
        gmm = fit_gmm_1d([1.0, 2.0, 3.0], 1, seed=0)
        with pytest.raises(ValueError):
            fence_threshold(gmm, span=-0.1)


def model_settings(**kwargs):
    defaults = dict(
        bins=4,
        metrics=("cpu",),
        quorum=1,
        min_samples=8,
        refit_interval=8,
        window=64,
    )
    defaults.update(kwargs)
    return GmmSettings(**defaults)


LABELS = ("sens:cpu", "batch:cpu", "batch:memory_bw")


def measurement(sens_cpu, batch_cpu, batch_bw=0.0):
    return np.array([sens_cpu, batch_cpu, batch_bw])


class TestGmmThresholdModel:
    def test_requires_bind_before_update(self):
        model = GmmThresholdModel(model_settings())
        with pytest.raises(RuntimeError):
            model.update(0, measurement(1.0, 1.0))

    def test_bind_rejects_missing_sensitive_column(self):
        model = GmmThresholdModel(model_settings())
        with pytest.raises(ValueError, match="sens:cpu"):
            model.bind(["other:cpu", "batch:cpu"], "sens", cpu_capacity=4.0)

    def test_bind_rejects_missing_metric_columns(self):
        model = GmmThresholdModel(model_settings(metrics=("disk_io",)))
        with pytest.raises(ValueError, match="disk_io"):
            model.bind(LABELS, "sens", cpu_capacity=4.0)

    def test_bind_rejects_nonpositive_capacity(self):
        model = GmmThresholdModel(model_settings())
        with pytest.raises(ValueError):
            model.bind(LABELS, "sens", cpu_capacity=0.0)

    def test_bin_edges_clamped(self):
        # Utilization at and beyond the top edge lands in the last bin,
        # negative readings in the first — never out of range.
        model = GmmThresholdModel(model_settings())
        model.bind(LABELS, "sens", cpu_capacity=4.0)
        top, _ = model._features(measurement(4.0, 0.0))
        beyond, _ = model._features(measurement(9.0, 0.0))
        bottom, _ = model._features(measurement(-1.0, 0.0))
        assert top == model.bins - 1
        assert beyond == model.bins - 1
        assert bottom == 0

    def test_judge_then_learn_no_verdict_while_cold(self):
        model = GmmThresholdModel(model_settings())
        model.bind(LABELS, "sens", cpu_capacity=4.0)
        # Nothing fitted yet: even an extreme reading yields no verdict.
        assert model.update(0, measurement(1.0, 100.0)) is False

    def test_learns_fence_and_flags_outlier(self):
        model = GmmThresholdModel(model_settings())
        model.bind(LABELS, "sens", cpu_capacity=4.0)
        rng = np.random.default_rng(5)
        for tick in range(30):
            model.update(tick, measurement(1.0, rng.normal(1.0, 0.05)))
        assert model.ready
        assert model.verdict(measurement(1.0, 10.0)) is True
        assert model.verdict(measurement(1.0, 1.0)) is False

    def test_nearest_bin_fallback(self):
        model = GmmThresholdModel(model_settings())
        model.bind(LABELS, "sens", cpu_capacity=4.0)
        rng = np.random.default_rng(5)
        # Train only the low-utilization bin (util 0.25 -> bin 1).
        for tick in range(30):
            model.update(tick, measurement(1.0, rng.normal(1.0, 0.05)))
        assert set(model.thresholds()) == {"cpu/1"}
        # A reading in the untrained top bin is judged by bin 1's fence.
        assert model.verdict(measurement(3.9, 10.0)) is True

    def test_quorum_requires_enough_metric_votes(self):
        settings = model_settings(metrics=("cpu", "memory_bw"), quorum=2)
        model = GmmThresholdModel(settings)
        model.bind(LABELS, "sens", cpu_capacity=4.0)
        rng = np.random.default_rng(5)
        for tick in range(30):
            model.update(
                tick,
                measurement(1.0, rng.normal(1.0, 0.05), rng.normal(10.0, 0.5)),
            )
        # One metric over its fence is not enough at quorum 2...
        assert model.verdict(measurement(1.0, 10.0, 10.0)) is False
        # ...both over is.
        assert model.verdict(measurement(1.0, 10.0, 100.0)) is True

    def test_rolling_window_caps_buffer(self):
        settings = model_settings(window=16, min_samples=8)
        model = GmmThresholdModel(settings)
        model.bind(LABELS, "sens", cpu_capacity=4.0)
        for tick in range(100):
            model.observe(tick, measurement(1.0, float(tick % 7)))
        assert all(len(buf) <= 16 for buf in model._samples.values())

    def test_update_stream_deterministic(self):
        def run_stream():
            model = GmmThresholdModel(model_settings(), seed=9)
            model.bind(LABELS, "sens", cpu_capacity=4.0)
            rng = np.random.default_rng(17)
            verdicts = []
            for tick in range(120):
                value = rng.normal(1.0, 0.1) + (5.0 if tick % 40 > 35 else 0.0)
                verdicts.append(model.update(tick, measurement(1.0, value)))
            return verdicts, model.thresholds()

        first_verdicts, first_thresholds = run_stream()
        second_verdicts, second_thresholds = run_stream()
        assert first_verdicts == second_verdicts
        assert first_thresholds == second_thresholds


class StepBatchApp(ConstantApp):
    """Batch demand that steps up mid-run (quiet, then contention)."""

    def __init__(self, step_tick=40, low=0.3, high=5.0, name="step"):
        super().__init__(name=name, demand_vector=ResourceVector(cpu=low))
        self.step_tick = step_tick
        self.low = low
        self.high = high

    def demand(self, clock):
        cpu = self.high if clock.tick >= self.step_tick else self.low
        return ResourceVector(cpu=cpu)


DETECTOR_SETTINGS = GmmSettings(
    bins=1,
    metrics=("cpu",),
    quorum=1,
    min_samples=10,
    refit_interval=200,
    window=200,
    cooldown=3,
)


class TestGmmThresholdDetector:
    def contended_host(self, step_tick=40):
        host = Host()
        sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=2.0))
        host.add_container(Container(name="sens", app=sensitive, sensitive=True))
        host.add_container(
            Container(name="step", app=StepBatchApp(step_tick=step_tick))
        )
        return host, sensitive

    def test_alarms_and_pauses_on_contention_step(self):
        host, sensitive = self.contended_host()
        detector = GmmThresholdDetector(sensitive, DETECTOR_SETTINGS)
        SimulationEngine(host, [detector]).run(ticks=60)
        assert detector.alarm_ticks
        assert min(detector.alarm_ticks) >= 40
        assert detector.throttle_count >= 1
        assert host.container("step").pause_count >= 1
        assert host.container("sens").pause_count == 0

    def test_resumes_after_clear_cooldown(self):
        # The step app looks quiet while paused, so after `cooldown`
        # clear periods the detector resumes it (and then re-detects).
        host, sensitive = self.contended_host()
        detector = GmmThresholdDetector(sensitive, DETECTOR_SETTINGS)
        SimulationEngine(host, [detector]).run(ticks=120)
        assert detector.resume_count >= 1
        assert detector.throttle_count >= detector.resume_count

    def test_shadow_mode_never_touches_containers(self):
        host, sensitive = self.contended_host()
        detector = GmmThresholdDetector(
            sensitive, DETECTOR_SETTINGS, actuate=False
        )
        SimulationEngine(host, [detector]).run(ticks=120)
        assert detector.alarm_ticks
        assert detector.throttle_count == 0
        assert host.container("step").pause_count == 0

    def test_summary_counters(self):
        host, sensitive = self.contended_host()
        detector = GmmThresholdDetector(sensitive, DETECTOR_SETTINGS)
        SimulationEngine(host, [detector]).run(ticks=60)
        summary = detector.summary()
        assert summary["alarms"] == len(detector.alarm_ticks)
        assert summary["throttles"] == detector.throttle_count
        assert summary["model"]["fitted_fences"] >= 1


class TestConfigValidation:
    """The detector's knobs validate on :class:`GmmSettings`."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bins=0),
            dict(max_components=0),
            dict(min_samples=1),
            dict(refit_interval=0),
            dict(window=10, min_samples=20),
            dict(metrics=()),
            dict(metrics=("cpu", "tachyons")),
            dict(quorum=0),
            dict(quorum=3, metrics=("cpu",)),
            dict(span=-1.0),
            dict(cooldown=0),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GmmSettings(**kwargs)

    def test_settings_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            GmmSettings().bins = 9

    def test_detector_mode_follows_aux_detector(self):
        from repro.core.controller import StayAway

        sensitive = SensitiveStub()
        assert StayAway(sensitive).summary()["detector_mode"] == "geometry"
        hybrid = StayAway(sensitive, aux_detector=GmmThresholdModel())
        assert hybrid.summary()["detector_mode"] == "hybrid"
