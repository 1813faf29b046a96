"""Registries for the pluggable maintenance components.

The replacement-policy registry lives next to the policies themselves
(:func:`~repro.core.policies.replacement.policy_by_name`); this module adds
the admission-controller registry so the configuration, the CLI and the
snapshot loader can name controllers the same way they name policies.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ...exceptions import CacheError
from .adaptive import AdaptiveAdmissionController
from .admission import AdmissionController

__all__ = [
    "admission_by_name",
    "admission_from_record",
    "available_admission_controllers",
]

_ADMISSIONS = {
    AdmissionController.kind: AdmissionController,
    AdaptiveAdmissionController.kind: AdaptiveAdmissionController,
}


def admission_by_name(name: str, enabled: bool = False) -> AdmissionController:
    """Instantiate an admission controller by (case-insensitive) kind name,
    with its default calibration (top quarter of two windows' scores)."""
    key = name.strip().lower()
    try:
        cls = _ADMISSIONS[key]
    except KeyError:
        known = ", ".join(sorted(_ADMISSIONS))
        raise CacheError(
            f"unknown admission controller {name!r}; known: {known}"
        ) from None
    return cls(enabled=enabled)


def admission_from_record(record: Dict[str, Any]) -> AdmissionController:
    """Rebuild an admission controller from a persisted state record."""
    kind = str(record.get("kind", AdmissionController.kind)).strip().lower()
    try:
        cls = _ADMISSIONS[kind]
    except KeyError:
        known = ", ".join(sorted(_ADMISSIONS))
        raise CacheError(
            f"unknown admission controller {kind!r} in snapshot; known: {known}"
        ) from None
    return cls.from_state_record(record)


def available_admission_controllers() -> List[str]:
    """Names of all bundled admission-controller kinds."""
    return sorted(_ADMISSIONS)
