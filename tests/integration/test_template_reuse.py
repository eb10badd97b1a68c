"""Integration tests for template reuse across batch co-locations (§6, §7.3)."""

import numpy as np
import pytest

from repro.core.config import StayAwayConfig
from repro.core.events import EventKind
from repro.core.state_space import StateLabel
from repro.core.template import MapTemplate
from repro.experiments.runner import run_stayaway
from repro.experiments.scenarios import Scenario


@pytest.fixture(scope="module")
def captured_template():
    """Capture a VLC map while co-located with CPUBomb (Fig. 17)."""
    scenario = Scenario(
        sensitive="vlc-streaming", batches=("cpubomb",), ticks=400, seed=11
    )
    run = run_stayaway(scenario)
    template = run.controller.export_template(source="vlc+cpubomb")
    return template, run


class TestTemplateCapture:
    def test_template_contains_violations(self, captured_template):
        template, _ = captured_template
        assert template.violation_count > 0
        assert template.representatives.shape[0] == template.coords.shape[0]

    def test_template_metadata(self, captured_template):
        template, _ = captured_template
        assert template.metadata["source"] == "vlc+cpubomb"


class TestTemplateReuse:
    def test_new_run_with_different_batch_starts_seeded(self, captured_template):
        template, original_run = captured_template
        scenario = Scenario(
            sensitive="vlc-streaming", batches=("soplex",), ticks=300, seed=12
        )
        seeded = run_stayaway(scenario, template=template)
        controller = seeded.controller
        # The seeded controller began with the template's states.
        assert len(controller.state_space) >= template.representatives.shape[0]
        assert controller.throttle.beta == template.beta

    def test_template_violations_predict_new_colocation_violations(
        self, captured_template
    ):
        """Fig. 18: with actions disabled, a different batch app's
        violations map into the region the template already marked."""
        template, _ = captured_template
        scenario = Scenario(
            sensitive="vlc-streaming", batches=("cpubomb",), ticks=300, seed=13
        )
        # Disabled controller: observe violations without intervening.
        config = StayAwayConfig(enabled=False)
        run = run_stayaway(scenario, config=config, template=template)
        controller = run.controller

        template_states = template.representatives.shape[0]
        # Violating samples during the new run that merged into
        # *pre-existing template states* labelled VIOLATION.
        reused_violation_hits = 0
        for point in controller.trajectory:
            if point.label is StateLabel.VIOLATION:
                state_index = None
                # Find the state by coords equality with the space.
                distances = np.linalg.norm(
                    controller.state_space.coords - point.coords, axis=1
                )
                state_index = int(np.argmin(distances))
                if state_index < template_states:
                    reused_violation_hits += 1
        assert reused_violation_hits > 0

    def test_seeded_controller_avoids_early_violations(self, captured_template):
        """A template lets a new run skip (most of) the learning phase."""
        template, _ = captured_template
        scenario = Scenario(
            sensitive="vlc-streaming", batches=("cpubomb",), ticks=300, seed=14
        )
        fresh = run_stayaway(scenario)
        seeded = run_stayaway(scenario, template=template)
        early_window = 100
        fresh_early = sum(
            1 for tick in fresh.qos.violation_ticks if tick < early_window
        )
        seeded_early = sum(
            1 for tick in seeded.qos.violation_ticks if tick < early_window
        )
        assert seeded_early <= fresh_early


class TestForeignTemplate:
    @pytest.mark.parametrize("containment", [True, False])
    def test_a_template_of_another_width_is_dropped_on_the_first_period(
        self, containment
    ):
        """A map whose vectors are 3 wide cannot take one of vlc's: the
        controller drops it whole, with its beta, and the run decides
        exactly as a run without a template does."""
        scenario = Scenario(
            sensitive="vlc-streaming", batches=("cpubomb",), ticks=600, seed=0
        )
        config = StayAwayConfig(containment=containment)
        template = MapTemplate(
            representatives=[[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]],
            coords=[[0.0, 0.0], [1.0, 0.0]],
            labels=[StateLabel.SAFE, StateLabel.VIOLATION],
            epsilon=config.dedup_epsilon,
            beta=4 * config.beta_initial,
        )
        cold = run_stayaway(scenario, config=config).controller
        seeded = run_stayaway(scenario, config=config, template=template).controller

        def decisions(controller):
            kinds = (EventKind.THROTTLE, EventKind.RESUME, EventKind.PROBE_RESUME)
            return [(event.tick, event.kind) for event in controller.events if event.kind in kinds]

        assert decisions(cold)
        assert decisions(seeded) == decisions(cold)
        assert len(seeded.trajectory) == len(cold.trajectory) > 0
        assert len(seeded.state_space) == len(cold.state_space)
        containment_summary = seeded.summary()["telemetry"]["containment"]
        assert containment_summary["firewall_catches"] == 0
        if containment:
            assert containment_summary["watchdog"]["resets"] == 1
            [reset] = seeded.events.of_kind(EventKind.MODEL_RESET)
            assert reset.detail["cause"] == "template-width"
            assert reset.detail["states"] == 2
