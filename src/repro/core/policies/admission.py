"""Cache admission control: the expensiveness filter of §6.2.

While experimenting with dense datasets the paper's authors observed *cache
pollution*: the cache filled with cheap queries whose hits saved little time,
so the expensive queries that dominate total processing time saw no benefit.
The admission-control mechanism scores every executed query by its
*expensiveness* — the ratio of its verification time to its filtering time —
and only queries above a threshold may enter the cache.

The threshold is calibrated from the requests of the first few windows: it is
set so that a configured fraction of those requests classify as expensive.  A
threshold of zero disables the mechanism (the paper's "C" configuration; the
calibrated one is "C + AC").

Controllers are *stateful* (calibration scores, fixed threshold, adaptive
history) and that state is part of the cache's persistable identity: snapshot
format v4 carries :meth:`AdmissionController.state_record` so a cache split
mid-calibration resumes exactly where it stopped instead of silently
recalibrating from scratch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..stores import WindowEntry

__all__ = ["AdmissionController"]


class AdmissionController:
    """Expensiveness-threshold admission filter.

    Parameters
    ----------
    enabled:
        Master switch; when ``False`` every query is admitted.
    expensive_fraction:
        Target fraction of calibration queries classified as expensive.
    calibration_windows:
        Number of initial windows whose queries are observed before the
        threshold is fixed.
    threshold:
        Explicit threshold.  ``None`` = calibrate automatically; ``0.0``
        disables admission control (every query admitted) per the paper.
    """

    #: Registry name of the controller (see :func:`~repro.core.policies.admission_by_name`).
    kind: str = "threshold"

    def __init__(
        self,
        enabled: bool = False,
        expensive_fraction: float = 0.25,
        calibration_windows: int = 2,
        threshold: Optional[float] = None,
    ) -> None:
        self._enabled = enabled
        self._expensive_fraction = expensive_fraction
        self._calibration_windows = calibration_windows
        self._explicit_threshold = threshold
        self._threshold: Optional[float] = threshold
        self._observed_scores: List[float] = []
        self._windows_observed = 0

    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        """``True`` when the admission filter is active."""
        return self._enabled

    @property
    def threshold(self) -> Optional[float]:
        """Current expensiveness threshold (``None`` while calibrating)."""
        return self._threshold

    @property
    def calibrated(self) -> bool:
        """``True`` once the threshold has been fixed."""
        return self._threshold is not None

    # ------------------------------------------------------------------ #
    def observe_window(
        self, entries: Sequence[WindowEntry], sampled: Sequence[float] = ()
    ) -> None:
        """Feed one completed window into the calibration phase.

        ``sampled`` scores the window's requests that are no candidates (exact
        hits, repeats).  No effect once the threshold is fixed or explicit.
        """
        if not self._enabled or self._explicit_threshold is not None:
            return
        if self.calibrated:
            return
        self._observed_scores.extend(
            score
            for score in [entry.expensiveness for entry in entries] + list(sampled)
            if score != float("inf")
        )
        self._windows_observed += 1
        if self._windows_observed >= self._calibration_windows:
            self._threshold = self._quantile_threshold()

    def _quantile_threshold(self) -> float:
        """Threshold classifying ``expensive_fraction`` of observed queries as expensive."""
        if not self._observed_scores:
            return 0.0
        ordered = sorted(self._observed_scores)
        # The top ``expensive_fraction`` of scores should pass the filter.
        cut = int(round((1.0 - self._expensive_fraction) * (len(ordered) - 1)))
        cut = min(max(cut, 0), len(ordered) - 1)
        return ordered[cut]

    # ------------------------------------------------------------------ #
    def admit(self, entry: WindowEntry) -> bool:
        """Return ``True`` if ``entry`` may be considered for caching."""
        if not self._enabled:
            return True
        if self._threshold is None:
            # Still calibrating: admit everything, as the paper does for the
            # first few windows.
            return True
        if self._threshold <= 0.0:
            # A threshold of 0 disables the component (paper, §6.2).
            return True
        return entry.expensiveness >= self._threshold

    def filter_admitted(self, entries: Sequence[WindowEntry]) -> List[WindowEntry]:
        """Return the entries that pass the admission filter, preserving order."""
        return [entry for entry in entries if self.admit(entry)]

    # ------------------------------------------------------------------ #
    # Persistable state (snapshot format v4).
    # ------------------------------------------------------------------ #
    def state_record(self) -> Dict[str, Any]:
        """JSON-compatible record of the controller's full state.

        Carries both the constructor parameters and the mutable calibration
        state, so :func:`~repro.core.policies.admission_from_record` can
        rebuild an identical controller — including one interrupted
        mid-calibration, whose observed scores and window count must survive
        the round-trip for replay identity.
        """
        return {
            "kind": self.kind,
            "enabled": self._enabled,
            "expensive_fraction": self._expensive_fraction,
            "calibration_windows": self._calibration_windows,
            "explicit_threshold": self._explicit_threshold,
            "threshold": self._threshold,
            "observed_scores": list(self._observed_scores),
            "windows_observed": self._windows_observed,
        }

    def restore_state(self, record: Dict[str, Any]) -> None:
        """Adopt the mutable calibration state of a :meth:`state_record`."""
        threshold = record.get("threshold")
        self._threshold = None if threshold is None else float(threshold)
        self._observed_scores = [float(s) for s in record.get("observed_scores", ())]
        self._windows_observed = int(record.get("windows_observed", 0))

    @classmethod
    def from_state_record(cls, record: Dict[str, Any]) -> "AdmissionController":
        """Rebuild a controller from a :meth:`state_record`."""
        controller = cls(
            enabled=bool(record.get("enabled", False)),
            expensive_fraction=float(record.get("expensive_fraction", 0.25)),
            calibration_windows=int(record.get("calibration_windows", 2)),
            threshold=record.get("explicit_threshold"),
        )
        controller.restore_state(record)
        return controller
