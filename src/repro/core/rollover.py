"""Timestamp rollover (paper §III-D).

The L2 is the only coherence actor that increases timestamps, so an L2 bank
is the first to notice that a timestamp computation is about to overflow the
hardware width. The rollover protocol:

1. the detecting bank circulates a *stall* flit on a unidirectional ring
   among L2 partitions; every partition stalls request processing and zeroes
   its timestamps (block ``ver``/``exp``, MSHR ``lastrd``/``lastwr``, and the
   memory partitions' ``mnow``);
2. the detecting bank sends *flush* requests to every L1; each L1 zeroes its
   logical ``now`` and invalidates all entries (blocks with outstanding
   MSHR traffic conceptually enter II; the rest go to I), then acks;
3. a *resume* flit releases all partitions; queued requests are processed
   with their carried timestamps clamped to zero.

Responses that were already in flight when rollover began carry timestamps
from the previous epoch; the simulator tags every timestamp-bearing message
with its epoch and receivers clamp stale-epoch timestamps to zero — the same
effect as the paper's "all timestamps reset to 0" for retained queue entries.

The manager is shared by all banks; concurrent triggers collapse into one
rollover (the paper's "lowest partition id wins" arbitration).
"""

from __future__ import annotations

from typing import List

from repro.timing.engine import Engine


class RolloverManager:
    """Coordinates a global logical-time reset across L1s, L2s, and DRAM."""

    def __init__(self, engine: Engine, threshold: int):
        self.engine = engine
        #: Timestamps at or above this value trigger a rollover.
        self.threshold = threshold
        self.epoch = 0
        self.in_progress = False
        self.rollovers = 0
        self._l1s: List = []
        self._l2s: List = []
        self._drams: List = []

    # ------------------------------------------------------------------
    def wire(self, l1s: List, l2s: List, drams: List) -> None:
        self._l1s = list(l1s)
        self._l2s = list(l2s)
        self._drams = list(drams)

    # ------------------------------------------------------------------
    def needs_rollover(self, projected_ts: int) -> bool:
        return projected_ts >= self.threshold

    def maybe_trigger(self, projected_ts: int, bank_id: int) -> bool:
        """Called by an L2 bank before a timestamp computation. Starts a
        rollover if ``projected_ts`` is in the guard band. Returns True if a
        rollover is (now) in progress and the caller must defer its work."""
        if self.in_progress:
            return True
        if not self.needs_rollover(projected_ts):
            return False
        self._begin(bank_id)
        return True

    # ------------------------------------------------------------------
    def _begin(self, bank_id: int) -> None:
        self.in_progress = True
        self.rollovers += 1
        # Stall every L2 partition immediately (ring flit, ~1 hop/bank) and
        # request L1 flushes; model the whole exchange as one latency.
        for l2 in self._l2s:
            l2.freeze()
        ring_latency = max(1, len(self._l2s))
        noc = self._l1s[0].noc if self._l1s else None
        flush_round_trip = 2 * (noc.cfg.link_latency if noc else 8) + 4
        total = ring_latency + flush_round_trip
        self.engine.schedule(self.engine.now + total, self._finish)

    def _finish(self) -> None:
        for l1 in self._l1s:
            l1.rollover_flush()
        for l2 in self._l2s:
            l2.rollover_reset()
        for dram in self._drams:
            dram.reset_timestamps()
        self.epoch += 1
        self.in_progress = False
        for l2 in self._l2s:
            l2.unfreeze()

    # ------------------------------------------------------------------
    def clamp(self, ts, msg_epoch: int) -> int:
        """Clamp a message timestamp from a previous epoch to zero."""
        if ts is None:
            return 0
        if msg_epoch != self.epoch:
            return 0
        return ts
