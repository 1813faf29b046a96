"""The unified cache-maintenance subsystem (the paper's §6, as one package).

The seed scattered the maintenance machinery across five loosely coupled
modules (window, admission, adaptive admission, replacement, statistics) and
ran every window fill as stop-the-world O(cache) work.  This package unifies
it behind two registries and one engine:

* :mod:`~repro.core.policies.replacement` — the five paper policies
  (LRU/POP/PIN/PINC/HD) behind :func:`policy_by_name`;
* :mod:`~repro.core.policies.admission` /
  :mod:`~repro.core.policies.adaptive` — the §6.2 admission controllers
  behind :func:`admission_by_name`, now with persistable calibration state;
* :mod:`~repro.core.policies.heap` — the incremental utility scorer with
  per-hit update hooks (the full-snapshot re-score survives only as the
  reference oracle);
* :mod:`~repro.core.policies.engine` — :class:`MaintenanceEngine`, the
  decide/apply split: a pure, serializable :class:`MaintenancePlan` per
  round, applied as O(window) row-level deltas;
* :mod:`~repro.core.policies.scheduler` — the maintenance schedulers
  (``sync``/``background``/``barrier``): *where* rounds execute, taking
  maintenance off the query path;
* :mod:`~repro.core.policies.journal` — the append-only
  :class:`PlanJournal` of applied plans (audit log / replication feed);
* :mod:`~repro.core.policies.window` — the Window Manager, now a thin
  batching front end over the scheduler.
"""

from __future__ import annotations

from .adaptive import AdaptiveAdmissionController
from .admission import AdmissionController
from .engine import MaintenanceEngine
from .heap import SelectionOutcome, UtilityHeap
from .journal import PlanJournal
from .plan import MaintenancePlan, MaintenanceReport
from .registry import (
    admission_by_name,
    admission_from_record,
    available_admission_controllers,
)
from .replacement import (
    HybridPolicy,
    LRUPolicy,
    PINCPolicy,
    PINPolicy,
    POPPolicy,
    ReplacementPolicy,
    available_policies,
    policy_by_name,
    squared_coefficient_of_variation,
)
from .scheduler import (
    SCHEDULER_MODES,
    BackgroundMaintenanceScheduler,
    BarrierMaintenanceScheduler,
    MaintenanceScheduler,
    SchedulerCounters,
    SyncMaintenanceScheduler,
    create_scheduler,
)
from .window import WindowManager

__all__ = [
    "SCHEDULER_MODES",
    "AdaptiveAdmissionController",
    "AdmissionController",
    "BackgroundMaintenanceScheduler",
    "BarrierMaintenanceScheduler",
    "HybridPolicy",
    "LRUPolicy",
    "MaintenanceEngine",
    "MaintenancePlan",
    "MaintenanceReport",
    "MaintenanceScheduler",
    "PlanJournal",
    "SchedulerCounters",
    "SyncMaintenanceScheduler",
    "PINCPolicy",
    "PINPolicy",
    "POPPolicy",
    "ReplacementPolicy",
    "SelectionOutcome",
    "UtilityHeap",
    "WindowManager",
    "admission_by_name",
    "admission_from_record",
    "available_admission_controllers",
    "create_scheduler",
    "available_policies",
    "policy_by_name",
    "squared_coefficient_of_variation",
]
