"""Runtime coherence-invariant sanitizer (see DESIGN.md appendix)."""

from repro.sanitize.events import CoherenceEvent, EventKind, TraceRing
from repro.sanitize.invariants import (
    CrossProtocolInvariants,
    InvariantSuite,
    MESIInvariants,
    RCCInvariants,
    TCInvariants,
    Violation,
    suites_for,
)
from repro.sanitize.sanitizer import Sanitizer

__all__ = [
    "CoherenceEvent",
    "EventKind",
    "TraceRing",
    "InvariantSuite",
    "Violation",
    "RCCInvariants",
    "TCInvariants",
    "MESIInvariants",
    "CrossProtocolInvariants",
    "suites_for",
    "Sanitizer",
]
