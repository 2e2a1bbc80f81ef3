"""The sanitizer core: event intake, invariant dispatch, trace dump.

One :class:`Sanitizer` is attached per simulation (``GPUSimulator(...,
sanitize=True)``). Controllers emit through the ``_emit`` helper on their
base class, which forwards here; each event is appended to the trace ring
and run through the protocol's invariant suites. The first violation dumps
the ring (when ``trace_out`` is set) and raises
:class:`~repro.errors.InvariantViolation` — simulation state at that moment
is the state that broke the invariant, frozen for inspection.

When the sanitizer is *not* attached, ``ctrl.sanitizer`` is ``None`` and
every emission site is a single attribute test — the disabled path does no
allocation, no formatting, nothing observable (byte-identical reports).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import InvariantViolation
from repro.sanitize.events import CoherenceEvent, TraceRing
from repro.sanitize.invariants import suites_for


class Sanitizer:
    """Checks the event stream of one simulation against its protocol's
    invariant suites."""

    def __init__(self, protocol: str, cfg, trace_out: Optional[str] = None,
                 ring_depth: int = 256):
        self.protocol = protocol
        self.trace_out = trace_out
        self.ring = TraceRing(ring_depth)
        self.suites = suites_for(protocol, ts_bits=cfg.ts.bits,
                                 lease_max=cfg.ts.lease_max)
        self.events_seen = 0
        self._seq = 0

    def emit(self, kind: str, unit: str, unit_id: int, cycle: int,
             addr: int, **fields: Any) -> None:
        """Record one protocol step and check every suite against it."""
        self._seq += 1
        ev = CoherenceEvent(self._seq, cycle, kind, unit, unit_id, addr,
                            fields)
        self.ring.append(ev)
        self.events_seen += 1
        for suite in self.suites:
            violation = suite.check(ev)
            if violation is not None:
                self._fail(violation, ev)

    def _fail(self, violation, ev: CoherenceEvent) -> None:
        trace_path = None
        if self.trace_out:
            trace_path = self.ring.dump_jsonl(self.trace_out)
        raise InvariantViolation(
            invariant=violation.invariant,
            event=ev,
            detail=violation.detail,
            citation=violation.citation,
            trace_path=trace_path,
        )

    def diagnostics(self) -> str:
        """Recent-event tail for deadlock reports (engine/simulator hook)."""
        return (f"sanitizer[{self.protocol}] saw {self.events_seen} events; "
                f"most recent:\n{self.ring.tail_text()}")
