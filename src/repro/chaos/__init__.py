"""Deterministic chaos layer for the sweep stack.

:mod:`repro.chaos.plan` defines seeded :class:`FaultPlan` specs
(``RCC_CHAOS``) that a sweep executor injects at its worker and cache
boundaries; :mod:`repro.chaos.campaign` holds the contract battery that
asserts the executor's failure contract under such plans.
"""

from repro.chaos.plan import (
    CHAOS_EXIT_CODE, ChaosCrash, ChaosError, ChaosFlaky, FAULT_KINDS,
    FaultPlan, FaultSpec,
)

__all__ = [
    "CHAOS_EXIT_CODE",
    "ChaosCrash",
    "ChaosError",
    "ChaosFlaky",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
]
