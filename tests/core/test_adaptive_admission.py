"""Tests for the adaptive (hill-climbing) admission controller."""

from __future__ import annotations

import pytest

from repro.core.policies import AdaptiveAdmissionController
from repro.core.stores import WindowEntry, expensiveness
from repro.graphs.graph import Graph


def entry(serial, nodes, features=1):
    """A window entry whose verification expanded ``nodes`` search nodes
    for a query of ``features`` distinct label paths."""
    return WindowEntry(
        serial=serial,
        query=Graph(labels=["C"], edges=[]),
        answer_ids=frozenset(),
        expensiveness=expensiveness(nodes, features),
    )


def calibrated_controller(**kwargs):
    controller = AdaptiveAdmissionController(calibration_windows=1, **kwargs)
    controller.observe_window([entry(i, nodes=i) for i in range(1, 9)])
    return controller


class TestConstruction:
    def test_invalid_step_factor(self):
        with pytest.raises(ValueError):
            AdaptiveAdmissionController(step_factor=1.0)

    def test_inherits_base_admission_behaviour(self):
        controller = AdaptiveAdmissionController(enabled=True, threshold=2.0)
        assert controller.admit(entry(1, nodes=5))
        assert not controller.admit(entry(2, nodes=1))


class TestAdaptation:
    def test_history_seeded_after_calibration(self):
        controller = calibrated_controller()
        assert controller.calibrated
        assert controller.threshold_history
        assert controller.threshold_history[-1] == controller.threshold

    def test_improving_savings_keep_direction(self):
        controller = calibrated_controller()
        start = controller.threshold
        controller.record_window_saving(1.0)
        controller.record_window_saving(2.0)
        controller.record_window_saving(3.0)
        assert controller.threshold > start  # kept raising the threshold

    def test_worsening_savings_reverse_direction(self):
        controller = calibrated_controller()
        controller.record_window_saving(5.0)
        raised = controller.threshold
        controller.record_window_saving(1.0)  # got worse → back off
        assert controller.threshold < raised

    def test_threshold_never_below_minimum(self):
        controller = calibrated_controller(min_threshold=0.5)
        for saving in (5.0, 1.0, 0.5, 0.2, 0.1, 0.05):
            controller.record_window_saving(saving)
        assert controller.threshold >= 0.5

    def test_no_adaptation_before_calibration(self):
        controller = AdaptiveAdmissionController(calibration_windows=3)
        controller.record_window_saving(1.0)
        assert controller.threshold is None

    def test_no_adaptation_when_disabled(self):
        controller = AdaptiveAdmissionController(enabled=False)
        controller.record_window_saving(1.0)
        assert controller.threshold is None
        assert controller.admit(entry(1, nodes=1, features=1000))
