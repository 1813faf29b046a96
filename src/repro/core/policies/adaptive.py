"""Adaptive admission control: greedy threshold tuning (§6.2, "dynamic approaches").

Besides the quantile-calibrated threshold, the paper mentions experimenting
with "more dynamic approaches (e.g., greedily adapting the threshold using an
exponential back-off approach until the achieved time speedup reaches a local
maximum)".  This module implements that extension.

The adaptive controller starts from the calibrated threshold and, after every
completed window, compares the cache's recent per-query time saving against
the previous window's.  While the saving keeps improving it keeps moving the
threshold in the same direction (multiplying the step); when the saving drops
it reverses direction and halves the step — a 1-D hill climb on the
expensiveness threshold.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..stores import WindowEntry
from .admission import AdmissionController

__all__ = ["AdaptiveAdmissionController"]


class AdaptiveAdmissionController(AdmissionController):
    """Admission controller that keeps tuning its threshold after calibration.

    Parameters
    ----------
    enabled, expensive_fraction, calibration_windows, threshold:
        As in :class:`AdmissionController`.
    step_factor:
        Multiplicative step applied to the threshold on every adjustment.
    min_threshold:
        Lower bound; the threshold never adapts below this value.
    """

    kind = "adaptive"

    def __init__(
        self,
        enabled: bool = True,
        expensive_fraction: float = 0.25,
        calibration_windows: int = 2,
        threshold: Optional[float] = None,
        step_factor: float = 1.5,
        min_threshold: float = 0.0,
    ) -> None:
        super().__init__(
            enabled=enabled,
            expensive_fraction=expensive_fraction,
            calibration_windows=calibration_windows,
            threshold=threshold,
        )
        if step_factor <= 1.0:
            raise ValueError("step_factor must be greater than 1")
        self._step_factor = step_factor
        self._min_threshold = min_threshold
        self._direction = 1.0  # +1 = raise the threshold, -1 = lower it
        self._previous_saving: Optional[float] = None
        self._history: List[float] = []

    # ------------------------------------------------------------------ #
    @property
    def threshold_history(self) -> List[float]:
        """Threshold values after each adaptation step (newest last)."""
        return list(self._history)

    def record_window_saving(self, saving_s: float) -> None:
        """Feed the time saving observed in the last window.

        The maintenance engine calls this after every cache-update round with
        the window's *estimated sub-iso cost alleviated* (deterministic,
        accumulated from the per-hit hooks; windows span a fixed number of
        requests, so totals compare like per-query averages); external
        monitoring loops may instead feed measured *plain method time −
        cached time*.  Either way the controller uses consecutive
        observations to hill-climb its threshold.
        """
        if not self.enabled or not self.calibrated:
            return
        if self._previous_saving is not None:
            if saving_s < self._previous_saving:
                # The last move hurt: reverse and shrink the step.
                self._direction = -self._direction
                self._step_factor = max(1.05, 1.0 + (self._step_factor - 1.0) / 2.0)
        self._previous_saving = saving_s
        self._adjust_threshold()

    def _adjust_threshold(self) -> None:
        current = self.threshold or 0.0
        if current <= 0.0:
            # Bootstrapping from a disabled threshold: use the smallest
            # positive value so multiplicative steps have something to act on.
            current = 1.0
        factor = self._step_factor if self._direction > 0 else 1.0 / self._step_factor
        updated = max(self._min_threshold, current * factor)
        self._threshold = updated
        self._history.append(updated)

    # ------------------------------------------------------------------ #
    def observe_window(
        self, entries: Sequence[WindowEntry], sampled: Sequence[float] = ()
    ) -> None:
        """Calibrate as the base class does, then seed the adaptation history."""
        was_calibrated = self.calibrated
        super().observe_window(entries, sampled)
        if not was_calibrated and self.calibrated and self.threshold is not None:
            self._history.append(self.threshold)

    # ------------------------------------------------------------------ #
    # Persistable state (snapshot format v4).
    # ------------------------------------------------------------------ #
    def state_record(self) -> Dict[str, Any]:
        """Base record plus the hill-climb state (direction, step, history)."""
        record = super().state_record()
        record.update(
            {
                "step_factor": self._step_factor,
                "min_threshold": self._min_threshold,
                "direction": self._direction,
                "previous_saving": self._previous_saving,
                "history": list(self._history),
            }
        )
        return record

    def restore_state(self, record: Dict[str, Any]) -> None:
        super().restore_state(record)
        self._step_factor = float(record.get("step_factor", self._step_factor))
        self._direction = float(record.get("direction", 1.0))
        previous = record.get("previous_saving")
        self._previous_saving = None if previous is None else float(previous)
        self._history = [float(v) for v in record.get("history", ())]

    @classmethod
    def from_state_record(cls, record: Dict[str, Any]) -> "AdaptiveAdmissionController":
        controller = cls(
            enabled=bool(record.get("enabled", True)),
            expensive_fraction=float(record.get("expensive_fraction", 0.25)),
            calibration_windows=int(record.get("calibration_windows", 2)),
            threshold=record.get("explicit_threshold"),
            step_factor=float(record.get("step_factor", 1.5)),
            min_threshold=float(record.get("min_threshold", 0.0)),
        )
        controller.restore_state(record)
        return controller
