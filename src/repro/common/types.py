"""Core enums shared across the memory system.

These mirror the vocabulary of the paper: memory operation kinds issued by
warps, coherence message kinds on the interconnect, and the stable/transient
states of the RCC L1 and L2 controllers (Fig. 4/5 of the paper). Baseline
protocols (MESI, TC-strong/weak) define their own state enums in their own
modules; the message kinds here are the union used by all protocols so the
NoC can account traffic uniformly.
"""

from __future__ import annotations

import enum


class MemOpKind(enum.Enum):
    """A memory/trace operation a warp can issue."""

    LOAD = "LD"
    STORE = "ST"
    ATOMIC = "AT"
    FENCE = "FENCE"
    COMPUTE = "COMPUTE"
    BARRIER = "BARRIER"

    # Stat dicts keyed by op kind sit in the simulator's hottest loops; the
    # default Enum.__hash__ is a Python-level call (it hashes the member
    # name). Identity hashing is equivalent for singleton members and runs
    # entirely in C. Dict iteration order is insertion order either way, so
    # results are unaffected.
    __hash__ = object.__hash__

    @property
    def is_global_mem(self) -> bool:
        """True for operations that access the global memory system."""
        return self in _GLOBAL_MEM_KINDS

    @property
    def is_write(self) -> bool:
        return self in _WRITE_KINDS


class MsgKind(enum.Enum):
    """Coherence message kinds (union over all protocols).

    ``GETS``/``GETX``/``WRITE``/``ATOMIC`` are L1→L2 requests;
    ``DATA``/``RENEW``/``ACK`` are L2→L1 responses; ``INV``/``INV_ACK`` are
    MESI directory traffic (a recall of an L2 victim is an ``INV`` with
    ``meta["recall"]``); ``FLUSH`` is RCC's rollover flush. The L2 reaches
    DRAM through :meth:`~repro.mem.dram.DRAMPartition.access`, not messages.
    """

    GETS = "GETS"
    GETX = "GETX"            # MESI store-permission request (write-through data ride-along)
    WRITE = "WRITE"
    ATOMIC = "ATOMIC"
    DATA = "DATA"
    RENEW = "RENEW"
    ACK = "ACK"
    INV = "INV"
    INV_ACK = "INV_ACK"
    FLUSH = "FLUSH"          # rollover: L2 -> L1 flush request

    __hash__ = object.__hash__  # see MemOpKind.__hash__

    @property
    def carries_data(self) -> bool:
        """Messages that carry a full cache block (data flits)."""
        return self in _DATA_KINDS


class L1State(enum.Enum):
    """RCC L1 controller states (paper Fig. 4/5).

    ``I``/``V`` are stable. ``IV``: load miss outstanding. ``II``: store or
    atomic outstanding, block unreadable. ``VI``: store outstanding but the
    pre-store copy is still valid-readable until the ACK arrives (GPU
    optimization).
    """

    I = "I"
    V = "V"
    IV = "IV"
    II = "II"
    VI = "VI"

    __hash__ = object.__hash__  # see MemOpKind.__hash__

    @property
    def stable(self) -> bool:
        return self in _STABLE_L1


class L2State(enum.Enum):
    """RCC L2 controller states (paper Fig. 4/5).

    ``IV``: miss outstanding with mergeable MSHR. ``IAV``: atomic received in
    I state; stalls further requests until the line returns from DRAM and the
    atomic completes.
    """

    I = "I"
    V = "V"
    IV = "IV"
    IAV = "IAV"

    __hash__ = object.__hash__  # see MemOpKind.__hash__

    @property
    def stable(self) -> bool:
        return self in _STABLE_L2


class AccessOutcome(enum.Enum):
    """Result of presenting a core memory op to the L1 controller."""

    HIT = "hit"              # completes after L1 hit latency
    MISS = "miss"            # request sent (or merged); completion via response
    STALL = "stall"          # structural/protocol stall; retry next cycle


# Membership sets for the hot-path properties above (frozenset lookup beats
# rebuilding a tuple and linearly comparing on every call).
_GLOBAL_MEM_KINDS = frozenset(
    (MemOpKind.LOAD, MemOpKind.STORE, MemOpKind.ATOMIC))
_WRITE_KINDS = frozenset((MemOpKind.STORE, MemOpKind.ATOMIC))
_DATA_KINDS = frozenset((
    MsgKind.WRITE, MsgKind.ATOMIC, MsgKind.DATA, MsgKind.GETX))
_STABLE_L1 = frozenset((L1State.I, L1State.V))
_STABLE_L2 = frozenset((L2State.I, L2State.V))
