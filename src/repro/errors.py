"""Exception hierarchy for the RCC reproduction library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid or inconsistent simulation configuration."""


class ProtocolError(ReproError):
    """A coherence controller reached a state/event pair it cannot handle.

    In hardware this would be a protocol bug; in the simulator it aborts the
    run so that FSM holes are found by tests rather than silently mis-ordered.
    """

    def __init__(self, component: str, state: str, event: str, detail: str = ""):
        self.component = component
        self.state = state
        self.event = event
        self.detail = detail
        msg = f"{component}: no transition for event {event!r} in state {state!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class SimulationError(ReproError):
    """The simulation engine detected an internal inconsistency."""


class DeadlockError(SimulationError):
    """The simulation made no forward progress (no events, work remaining)."""

    def __init__(self, cycle: int, detail: str = ""):
        self.cycle = cycle
        msg = f"deadlock detected at cycle {cycle}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


#: The sweep executor's failure taxonomy. Every failed cell is filed
#: under exactly one class:
#:
#: - ``timeout``       — the cell exceeded its wall-clock budget and its
#:                       worker was reaped;
#: - ``crash``         — the worker process evaluating the cell died
#:                       (confirmed in an isolated single-worker pool);
#: - ``poisoned-pool`` — the cell failed only because a *sibling* cell
#:                       broke the shared pool and it could never be
#:                       confirmed in isolation;
#: - ``exception``     — the worker function raised an ordinary Python
#:                       exception.
FAILURE_KINDS = ("timeout", "crash", "poisoned-pool", "exception")


class CellFailure:
    """Structured description of one failed sweep cell.

    Carried on :attr:`HarnessError.failures` so callers can triage
    programmatically instead of parsing the message string.
    """

    __slots__ = ("label", "kind", "attempts", "message")

    def __init__(self, label: str, kind: str, attempts: int, message: str):
        assert kind in FAILURE_KINDS, kind
        self.label = label
        self.kind = kind
        self.attempts = attempts
        self.message = message

    def describe(self) -> str:
        return (f"{self.label} [{self.kind}, {self.attempts} attempt(s)]: "
                f"{self.message}")

    def to_json(self) -> dict:
        return {"label": self.label, "kind": self.kind,
                "attempts": self.attempts, "message": self.message}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CellFailure {self.describe()}>"


class HarnessError(ReproError):
    """One or more sweep cells failed in the execution engine after
    exhausting their retry budget (worker crash, timeout, or broken
    process pool).

    Raised instead of executor internals such as ``BrokenProcessPool`` so
    the CLI and tests see one stable, library-owned failure type.
    ``failures`` holds one :class:`CellFailure` per failed cell, each
    classified under the :data:`FAILURE_KINDS` taxonomy.
    """

    def __init__(self, message: str, failures=None):
        super().__init__(message)
        self.failures = list(failures or [])

    @classmethod
    def from_failures(cls, failures) -> "HarnessError":
        failures = list(failures)
        msg = (f"{len(failures)} cell(s) failed: "
               + "; ".join(f.describe() for f in failures))
        return cls(msg, failures=failures)


class ConsistencyViolation(ReproError):
    """The SC witness checker found an execution that is not sequentially
    consistent (or violates coherence's per-location write serialization)."""


class InvariantViolation(ReproError):
    """The runtime sanitizer caught a coherence-invariant break mid-flight.

    Unlike :class:`ConsistencyViolation` (an end-state SC check), this names
    the exact protocol step that broke and the paper rule it violates, and
    points at the JSONL trace dump when one was written.
    """

    def __init__(self, invariant: str, event, detail: str, citation: str,
                 trace_path=None):
        self.invariant = invariant
        self.event = event
        self.detail = detail
        self.citation = citation
        self.trace_path = trace_path
        msg = f"invariant {invariant!r} violated: {detail}\n  at {event!r}"
        if citation:
            msg += f"\n  rule: {citation}"
        if trace_path:
            msg += f"\n  trace: {trace_path}"
        super().__init__(msg)


class TraceError(ReproError):
    """A malformed workload trace (bad op, misaligned barrier, ...)."""
