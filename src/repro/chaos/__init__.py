"""Deterministic chaos layer for the sweep stack.

:mod:`repro.chaos.plan` defines seeded :class:`FaultPlan` specs
(``RCC_CHAOS`` or ``--chaos``) that a sweep executor injects at its
worker, cache, and journal boundaries; :mod:`repro.chaos.campaign`
asserts the executor's failure contract under such plans
(``repro-fuzz --chaos``) and drives the kill-and-resume equivalence
round-trips.
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
