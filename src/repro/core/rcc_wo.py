"""RCC-WO: the weakly ordered variant of RCC (paper §III-F).

The core keeps **two** logical times instead of one:

* the **read view**, consulted and updated by loads, and
* the **write view**, consulted and updated by stores.

Loads and stores may then be reordered with respect to each other: a store's
version only advances the write view, so it no longer expires the core's own
read leases on unrelated blocks. A full FENCE sets both views to
``max(read view, write view)`` — nothing more, so fences never wait on
physical time (unlike TC-weak's GWCT wait). Atomics are read-modify-writes
and operate on the join of both views. The consistency model is WO.

The L2 controller is *unchanged* — the paper's point that one RCC
implementation supports both strong and weak consistency (the only
microarchitectural deltas are the warp scheduler signal and this split).
"""

from __future__ import annotations

from repro.common.types import MemOpKind
from repro.core.rcc_l1 import RCCL1Controller
from repro.core.timestamps import LogicalClock
from repro.gpu.warp import MemOpRecord, Warp


class RCCWOL1Controller(RCCL1Controller):
    """RCC L1 with split read/write logical views."""

    protocol_name = "RCC-WO"

    def __init__(self, core_id, engine, cfg, noc, amap, rollover):
        super().__init__(core_id, engine, cfg, noc, amap, rollover)
        # ``self.clock`` is the read view; add a separate write view.
        self.write_clock = LogicalClock(bits=cfg.ts.bits)

    # ------------------------------------------------------------------
    # View plumbing (overrides of the SC variant's single-clock accessors)
    # ------------------------------------------------------------------
    def _read_now(self) -> int:
        return self.clock.value

    def _write_now(self) -> int:
        return self.write_clock.value

    def _advance_read(self, ts: int) -> None:
        self.clock.advance_to(ts)

    def _advance_write(self, ts: int) -> None:
        self.write_clock.advance_to(ts)

    # ------------------------------------------------------------------
    def access(self, record: MemOpRecord, warp: Warp) -> None:
        if record.kind is MemOpKind.ATOMIC:
            # RMW: operates on the join of both views.
            joined = max(self.clock.value, self.write_clock.value)
            self.clock.advance_to(joined)
            self.write_clock.advance_to(joined)
        super().access(record, warp)

    def on_message(self, msg) -> None:
        if msg.meta.get("atomic"):
            # Atomic responses advance both views (handled in _on_data via
            # _advance_read + _advance_write, but join afterwards too).
            super().on_message(msg)
            joined = max(self.clock.value, self.write_clock.value)
            self.clock.advance_to(joined)
            self.write_clock.advance_to(joined)
            return
        super().on_message(msg)

    # ------------------------------------------------------------------
    def on_fence_retire(self, warp: Warp) -> None:
        """Full fence: join the two views (paper §III-F) — instantaneous."""
        joined = max(self.clock.value, self.write_clock.value)
        self.clock.advance_to(joined)
        self.write_clock.advance_to(joined)

    def _livelock_tick(self) -> None:
        if self.core is not None and self.core.finished:
            return
        self.clock.tick(1)
        self.write_clock.tick(1)
        self.engine.schedule(self.engine.now + self._livelock_period,
                             self._livelock_tick)

    def rollover_flush(self) -> None:
        super().rollover_flush()
        self.write_clock.reset()
