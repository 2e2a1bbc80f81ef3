"""SC-ideal: sequential consistency with *instant* coherence permissions.

This is the motivation study's upper bound (paper Fig. 1d): the memory
system still charges the unavoidable write-through round trip to L2, but
acquiring read/write permission is free — a store's invalidations happen in
zero time with no traffic and no ack collection, so the ack leaves the L2
after just the bank access latency.

Implemented as the MESI directory with a magic invalidation path: the L2
removes sharers' L1 copies directly (simulator reach-around, deliberately
unphysical) instead of exchanging INV/INV_ACK messages.
"""

from __future__ import annotations

from typing import List

from repro.coherence.mesi import MESIL1Controller, MESIL2Controller
from repro.common.messages import Message
from repro.mem.cache_array import CacheLine


class IdealL1Controller(MESIL1Controller):
    """MESI L1; invalidations arrive by magic, never as messages."""

    protocol_name = "SC-IDEAL"


class IdealL2Controller(MESIL2Controller):
    """MESI directory with free, instant invalidations."""

    protocol_name = "SC-IDEAL"

    def __init__(self, bank_id, engine, cfg, noc, amap, dram, backing):
        super().__init__(bank_id, engine, cfg, noc, amap, dram, backing)
        self._l1s: List[IdealL1Controller] = []

    def wire_l1s(self, l1s: List[IdealL1Controller]) -> None:
        self._l1s = list(l1s)

    def _invalidate_and_write(self, msg: Message, line: CacheLine,
                              atomic: bool) -> None:
        # Instant permissions: every sharer drops its copy right now.
        for sharer in sorted(line.sharers):
            self.stats.invalidations_sent += 1
            self._l1s[sharer[1]]._invalidate(line.addr, magic=True)
        line.sharers.clear()
        self._apply_write(msg, line, atomic)

    def _recall(self, line: CacheLine) -> None:
        # Instant recall: no ack is outstanding, so nothing holds back
        # re-allocation.
        for sharer in sorted(line.sharers):
            self.stats.invalidations_sent += 1
            self._l1s[sharer[1]]._invalidate(line.addr, magic=True)
