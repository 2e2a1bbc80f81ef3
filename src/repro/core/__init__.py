"""Relativistic Cache Coherence (RCC) — the paper's contribution.

RCC keeps coherence in *logical* time (Lamport): each core owns a logical
clock ``now``; the L2 tracks a per-block write version ``ver`` and read-lease
expiration ``exp``. The three ordering rules of paper §III-A:

1. a core reading block B advances ``now`` to ``B.ver`` if ``B.ver > now``;
2. a core writing B advances ``B.ver`` to ``now`` (and vice versa, whichever
   is larger);
3. a write to B also advances both the writer's ``now`` and the new ``B.ver``
   past the last outstanding lease ``exp`` for B,

together yield a sequentially consistent global order while letting stores
acquire "write permission" instantly — no invalidations, no lease waits.
"""

from repro.core.timestamps import LogicalClock, timestamp_guard_band
from repro.core.lease import LeasePredictor
from repro.core.rcc_l1 import RCCL1Controller
from repro.core.rcc_l2 import RCCL2Controller
from repro.core.rcc_wo import RCCWOL1Controller
from repro.core.rollover import RolloverManager

__all__ = [
    "LeasePredictor",
    "LogicalClock",
    "RCCL1Controller",
    "RCCL2Controller",
    "RCCWOL1Controller",
    "RolloverManager",
    "timestamp_guard_band",
]
