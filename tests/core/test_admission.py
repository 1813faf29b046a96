"""Tests for the cache admission controller (§6.2)."""

from __future__ import annotations


from repro.core.policies import AdmissionController
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


class TestDisabledController:
    def test_everything_admitted_when_disabled(self):
        controller = AdmissionController(enabled=False)
        assert controller.admit(entry(1, nodes=0))
        assert controller.admit(entry(2, nodes=100))

    def test_observe_window_noop_when_disabled(self):
        controller = AdmissionController(enabled=False)
        controller.observe_window([entry(1, nodes=5)])
        assert controller.threshold is None


class TestExplicitThreshold:
    def test_threshold_filters_cheap_queries(self):
        controller = AdmissionController(enabled=True, threshold=2.0)
        assert controller.calibrated
        assert not controller.admit(entry(1, nodes=1))   # expensiveness 1 < 2
        assert controller.admit(entry(2, nodes=5))        # expensiveness 5 >= 2

    def test_zero_threshold_disables_filtering(self):
        """Paper: 'a threshold value of 0 disables this component'."""
        controller = AdmissionController(enabled=True, threshold=0.0)
        assert controller.admit(entry(1, nodes=0))
        assert controller.admit(entry(2, nodes=100))

    def test_explicit_threshold_not_overwritten_by_observation(self):
        controller = AdmissionController(enabled=True, threshold=2.0)
        controller.observe_window([entry(i, nodes=100) for i in range(10)])
        assert controller.threshold == 2.0


class TestCalibration:
    def test_admits_everything_while_calibrating(self):
        controller = AdmissionController(enabled=True, calibration_windows=2)
        assert not controller.calibrated
        assert controller.admit(entry(1, nodes=1, features=100))

    def test_threshold_fixed_after_calibration_windows(self):
        controller = AdmissionController(
            enabled=True, expensive_fraction=0.25, calibration_windows=2
        )
        window1 = [entry(i, nodes=i) for i in range(1, 11)]
        window2 = [entry(i + 10, nodes=i) for i in range(1, 11)]
        controller.observe_window(window1)
        assert not controller.calibrated
        controller.observe_window(window2)
        assert controller.calibrated
        # Roughly the top quarter of observed ratios should pass.
        admitted = [e for e in window2 if controller.admit(e)]
        assert 1 <= len(admitted) <= 4

    def test_filter_admitted_preserves_order(self):
        controller = AdmissionController(enabled=True, threshold=3.0)
        entries = [entry(1, nodes=5), entry(2, nodes=1), entry(3, nodes=9)]
        assert [e.serial for e in controller.filter_admitted(entries)] == [1, 3]

    def test_calibration_ignores_infinite_ratios(self):
        controller = AdmissionController(
            enabled=True, expensive_fraction=0.5, calibration_windows=1
        )
        controller.observe_window(
            [entry(1, nodes=1, features=0), entry(2, nodes=4), entry(3, nodes=1)]
        )
        assert controller.calibrated
        assert controller.threshold != float("inf")

    def test_calibration_with_no_observations_gives_zero_threshold(self):
        controller = AdmissionController(enabled=True, calibration_windows=1)
        controller.observe_window([])
        assert controller.threshold == 0.0
        assert controller.admit(entry(1, nodes=1, features=1000))

    def test_higher_fraction_admits_more(self):
        scores = [entry(i, nodes=i) for i in range(1, 21)]
        strict = AdmissionController(enabled=True, expensive_fraction=0.1, calibration_windows=1)
        lenient = AdmissionController(enabled=True, expensive_fraction=0.8, calibration_windows=1)
        strict.observe_window(scores)
        lenient.observe_window(scores)
        assert len(lenient.filter_admitted(scores)) >= len(strict.filter_admitted(scores))
