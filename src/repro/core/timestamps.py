"""Logical clocks with finite-width rollover detection.

Hardware timestamps are fixed-width (32 bits in the paper; on average they
advanced once per ~1073 cycles, about one rollover per hour). Rather than
wrapping silently, RCC detects an impending overflow at the L2 — the only
agent that ever *increases* timestamps — and runs a global reset protocol
(see :mod:`repro.core.rollover`). The rollover ``epoch`` lives in
:class:`~repro.core.rollover.RolloverManager`; the witness checker keys on
``(epoch << bits) | value`` (``RCCL1Controller._ts_key``), so its order
stays monotonic across resets.
"""

from __future__ import annotations

from repro.errors import SimulationError


def timestamp_guard_band(lease_max: int) -> int:
    """How far below the max a timestamp may grow before rollover triggers.

    One L2 transaction can advance a timestamp by at most ``lease_max``
    (a new lease) plus one (rule 3's ``exp + 1``); a few transactions may be
    in flight per block. A 4x margin keeps every in-flight computation
    representable.
    """
    return 4 * lease_max + 64


class LogicalClock:
    """A core's (or block's) logical time with bounded width.

    >>> clk = LogicalClock(bits=8)
    >>> clk.advance_to(10); clk.value
    10
    >>> clk.advance_to(5); clk.value   # never moves backwards
    10
    """

    __slots__ = ("bits", "max_value", "value")

    def __init__(self, bits: int = 32, value: int = 0):
        self.bits = bits
        self.max_value = (1 << bits) - 1
        self.value = value

    def advance_to(self, target: int) -> int:
        """Monotonic advance; returns the new value."""
        if target > self.max_value:
            raise SimulationError(
                f"logical clock overflow: {target} > {self.max_value}; "
                "rollover should have triggered earlier"
            )
        if target > self.value:
            self.value = target
        return self.value

    def tick(self, amount: int = 1) -> int:
        """Livelock-avoidance bump (saturates at the width limit)."""
        self.value = min(self.value + amount, self.max_value)
        return self.value

    def reset(self) -> None:
        """Rollover: back to zero."""
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<LogicalClock {self.value}>"
