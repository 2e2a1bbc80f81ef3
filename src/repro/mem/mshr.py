"""Miss Status Holding Registers.

One MSHR entry tracks all outstanding traffic for one cache block. The L1
uses entries to merge loads to the same block and to queue store acks; the
RCC L2 additionally tracks ``lastrd``/``lastwr`` — the latest logical ``now``
of any reading/writing core observed while the block was being fetched from
DRAM (paper §III-D) — so that stores can be acknowledged *before* the DRAM
response arrives.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import SimulationError


class MSHREntry:
    """Per-block outstanding-miss bookkeeping."""

    __slots__ = ("addr", "waiting_loads", "pending_stores", "lastrd", "lastwr",
                 "has_read", "has_write", "store_value", "meta")

    def __init__(self, addr: int):
        self.addr = addr
        #: Core-side ops blocked on this line (L1) or requester messages (L2).
        self.waiting_loads: List[Any] = []
        #: Outstanding store/atomic ops awaiting ACK (L1) or merged writes (L2).
        self.pending_stores: List[Any] = []
        self.lastrd: int = 0          # latest now of any reading core (L2, RCC)
        self.lastwr: int = 0          # latest now of any writing core (L2, RCC)
        self.has_read: bool = False
        self.has_write: bool = False
        self.store_value: Any = None  # newest merged store token (L2)
        self.meta: Dict[str, Any] = {}

    @property
    def empty(self) -> bool:
        return not self.waiting_loads and not self.pending_stores

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<MSHR 0x{self.addr:x} loads={len(self.waiting_loads)} "
                f"stores={len(self.pending_stores)}>")


class MSHRFile:
    """Fixed-capacity file of :class:`MSHREntry`, keyed by block address."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise SimulationError("MSHR capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[int, MSHREntry] = {}
        self.peak_occupancy = 0
        #: Bumped whenever the set of entries changes.
        self.version = 0
        #: The L1s' full-file gate (``L1ControllerBase.would_stall``): a
        #: one-element list, emptied and replaced each time an entry
        #: leaves, so a reference taken while the file is full stays
        #: truthy until the next release.
        self.full_gate = [None]

    def get(self, addr: int) -> Optional[MSHREntry]:
        return self._entries.get(addr)

    def has_free(self) -> bool:
        return len(self._entries) < self.capacity

    def allocate(self, addr: int) -> MSHREntry:
        """Get-or-create the entry for ``addr``; caller must have checked
        :meth:`has_free` when creating new entries."""
        entry = self._entries.get(addr)
        if entry is None:
            if not self.has_free():
                raise SimulationError("MSHR allocation with no free entry")
            entry = MSHREntry(addr)
            self._entries[addr] = entry
            self.version += 1
            self.peak_occupancy = max(self.peak_occupancy, len(self._entries))
        return entry

    def release(self, addr: int) -> None:
        entry = self._entries.get(addr)
        if entry is None:
            raise SimulationError(f"releasing absent MSHR entry 0x{addr:x}")
        if not entry.empty:
            # Refuse *without* dropping the entry: the outstanding requests
            # it tracks must stay reachable for whoever handles the error.
            raise SimulationError(
                f"releasing non-empty MSHR entry 0x{addr:x}: {entry!r}"
            )
        del self._entries[addr]
        self.version += 1
        self.full_gate.clear()
        self.full_gate = [None]

    def release_if_empty(self, addr: int) -> bool:
        entry = self._entries.get(addr)
        if entry is not None and entry.empty:
            del self._entries[addr]
            self.version += 1
            self.full_gate.clear()
            self.full_gate = [None]
            return True
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, addr: int) -> bool:
        return addr in self._entries

    def entries(self):
        return list(self._entries.values())
