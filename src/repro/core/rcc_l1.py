"""RCC L1 controller (paper Fig. 5, left table).

States: **I**, **V** (stable); **IV** (load fetch outstanding), **II**
(store/atomic outstanding, no readable copy), **VI** (store outstanding but
the pre-store copy remains readable — the GPU-specific optimization).

Representation: the tag array holds data-bearing states only (V, IV); store
transients live in the MSHR, as in real write-no-allocate L1s:

* line in V, no pending stores            -> V
* line in V, pending stores in MSHR       -> VI
* line in IV (load fetch in flight)       -> IV  (II if stores also pending)
* no line, pending stores in MSHR         -> II
* otherwise                               -> I

A V line whose lease has expired (``now > exp``) is treated exactly like I
for reads, but its stale data and tag are kept so the L2 can grant a RENEW
(data-less lease extension) instead of resending the whole block.

The core's logical clock ``now`` lives here. It advances on DATA/ACK
responses (rules 1–3 are enforced at the L2, which computes the returned
``ver``) and through the periodic livelock-avoidance tick.
"""

from __future__ import annotations

from typing import Optional

from repro.common.messages import Message
from repro.common.types import L1State, MemOpKind, MsgKind
from repro.coherence.base import L1ControllerBase
from repro.core.lease import lease_expired, lease_valid
from repro.core.timestamps import LogicalClock
from repro.gpu.warp import MemOpRecord, Warp
from repro.mem.cache_array import CacheLine
from repro.sanitize.events import EventKind as EV


class RCCL1Controller(L1ControllerBase):
    """Logical-timestamp L1 for RCC (sequentially consistent variant)."""

    protocol_name = "RCC"
    serializes_stores = False

    def __init__(self, core_id, engine, cfg, noc, amap, rollover):
        super().__init__(core_id, engine, cfg, noc, amap, L1State.I)
        self.rollover = rollover
        self.clock = LogicalClock(bits=cfg.ts.bits)
        self._livelock_period = cfg.ts.livelock_tick_cycles

    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        return self.clock.value

    def _read_now(self) -> int:
        """Logical time consulted/advanced by loads (split in RCC-WO)."""
        return self.clock.value

    def _write_now(self) -> int:
        """Logical time sent with stores (split in RCC-WO)."""
        return self.clock.value

    def _advance_read(self, ts: int) -> None:
        self.clock.advance_to(ts)

    def _advance_write(self, ts: int) -> None:
        self.clock.advance_to(ts)

    def _ts_key(self, value: int) -> int:
        """Globally monotonic checker key for a timestamp in this epoch."""
        return (self.rollover.epoch << self.clock.bits) | value

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic livelock-avoidance tick (paper §III-E)."""
        if self._livelock_period > 0:
            self.engine.schedule(self.engine.now + self._livelock_period,
                                 self._livelock_tick)

    def _livelock_tick(self) -> None:
        if self.core is not None and self.core.finished:
            return  # let the event queue drain once the core is done
        self.clock.tick(1)
        self.engine.schedule(self.engine.now + self._livelock_period,
                             self._livelock_tick)

    # ------------------------------------------------------------------
    # Core-side events
    # ------------------------------------------------------------------
    def _hit(self, line: CacheLine) -> bool:
        # V (or VI) within the lease. _read_now() is a pure read in both
        # RCC and RCC-WO, so the issue-stage probe advances nothing.
        return (line.state is L1State.V
                and lease_valid(self._read_now(), line.exp))

    def _load(self, record: MemOpRecord, warp: Warp) -> None:
        block = self.block_of(record.addr)
        line = self.cache._map.get(block)
        rnow = self._read_now()

        if line is not None and self._hit(line):
            self.stats.loads += 1
            self.stats.load_hits += 1
            if self.sanitizer is not None:
                self._emit(EV.L1_LOAD_HIT, block, now=rnow, exp=line.exp,
                           view="read", epoch=self.rollover.epoch)
            record.read_value = line.value
            record.logical_ts = self._ts_key(rnow)
            record.order_key = -1  # L1 hit: never visited the L2
            line.touch()
            self.complete(record, warp, delay=self.cfg.l1.hit_latency)
            return

        expired = (line is not None and line.state is L1State.V
                   and lease_expired(rnow, line.exp))
        self.stats.loads += 1
        if expired:
            self.stats.load_expired += 1
        self.stats.load_misses += 1
        if self.sanitizer is not None:
            self._emit(EV.L1_LOAD_MISS, block, now=rnow, expired=expired,
                       view="read", epoch=self.rollover.epoch)
        entry = self.mshr.allocate(block)
        # Snapshot the read view at issue: the fill satisfies this load only
        # if the granted lease covers the snapshot (a warp that is already
        # logically past the lease must refetch, not consume stale data).
        entry.waiting_loads.append((record, warp, rnow))

        if entry.meta.get("gets_out"):
            return  # merge into the outstanding GETS

        old_exp: Optional[int] = None
        if line is None:
            line = self.cache.insert(block, L1State.IV, self._on_evict)
        else:
            old_exp = line.exp if line.value is not None else None
            line.state = L1State.IV
        line.pinned = True
        entry.meta["gets_out"] = True
        self.send_to_l2(
            MsgKind.GETS, block, now=rnow, exp=old_exp,
            meta={"expired": expired, "epoch": self.rollover.epoch},
        )

    def _store_or_atomic(self, record: MemOpRecord, warp: Warp) -> None:
        block = self.block_of(record.addr)
        self.count_access(record)
        if self.sanitizer is not None:
            vline = self.cache._map.get(block)
            self._emit(EV.L1_STORE_ISSUE, block, now=self._write_now(),
                       view="write", epoch=self.rollover.epoch,
                       atomic=record.kind is MemOpKind.ATOMIC,
                       op=record.seq,
                       copy_exp=(vline.exp if vline is not None
                                 and vline.state is L1State.V else None))
        entry = self.mshr.allocate(block)
        entry.pending_stores.append((record, warp))
        line = self.cache._map.get(block)
        if line is not None:
            line.pinned = True  # VI/II transients are not evictable
        kind = (MsgKind.ATOMIC if record.kind is MemOpKind.ATOMIC
                else MsgKind.WRITE)
        self.send_to_l2(
            kind, block, now=self._write_now(), value=record.value,
            meta={"record": record, "warp": warp,
                  "epoch": self.rollover.epoch},
        )

    def _on_evict(self, line: CacheLine) -> None:
        # Write-through L1: evicting a V line (valid or expired) is silent.
        self.stats.evictions += 1
        if self.sanitizer is not None:
            self._emit(EV.L1_EVICT, line.addr, state=line.state.name,
                       exp=line.exp)

    # ------------------------------------------------------------------
    # L2 responses
    # ------------------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        epoch = msg.meta.get("epoch", self.rollover.epoch)
        if msg.kind is MsgKind.DATA:
            self._on_data(msg, epoch)
        elif msg.kind is MsgKind.RENEW:
            self._on_renew(msg, epoch)
        elif msg.kind is MsgKind.ACK:
            self._on_ack(msg, epoch)
        elif msg.kind is MsgKind.FLUSH:
            self.rollover_flush()
        else:
            raise self.unhandled("-", msg.kind, f"addr=0x{msg.addr:x}")

    def _on_data(self, msg: Message, epoch: int) -> None:
        block = msg.addr
        ver = self.rollover.clamp(msg.ver, epoch)
        exp = self.rollover.clamp(msg.exp, epoch)
        self._advance_read(ver)  # rule 1: don't observe values from the future
        entry = self.mshr.get(block)

        if msg.meta.get("atomic"):
            # Atomic completion: behaves like an ACK that also returns data;
            # the local copy (if any) is stale past the atomic's version.
            self._advance_write(ver)
            self._complete_store(msg, ver)
            return

        line = self.cache._map.get(block)
        if line is not None:
            line.state = L1State.V
            line.exp = exp
            line.value = msg.value
        if self.sanitizer is not None:
            self._emit(EV.L1_FILL, block, ver=ver, exp=exp,
                       now_after=self._read_now(), view="read",
                       epoch=self.rollover.epoch,
                       installed=line is not None)
        if entry is not None:
            self._deliver_loads(block, entry, msg.value, ver, exp,
                                msg.meta.get("arrival", -1))

    def _deliver_loads(self, block: int, entry, value, ver: int, exp: int,
                       arrival: int) -> None:
        """Complete waiting loads covered by the granted lease; refetch for
        loads whose issue-time read view is already past it."""
        satisfied_any = False
        keep = []
        for record, warp, snapshot in entry.waiting_loads:
            if snapshot <= exp:
                record.read_value = value
                # Witness position: within the lease, at or after both the
                # block's version and the warp's issue-time view.
                record.logical_ts = self._ts_key(max(ver, snapshot))
                record.order_key = arrival
                self.complete(record, warp)
                satisfied_any = True
            else:
                keep.append((record, warp, self._read_now()))
        entry.waiting_loads = keep
        if keep:
            # Refetch for the uncovered loads. The line keeps its (valid)
            # data so sibling warps still within the lease can hit, and so
            # the L2 may answer with a data-less RENEW.
            line = self.cache._map.get(block)
            renewable = line is not None and line.value is not None
            entry.meta["gets_out"] = True
            self.send_to_l2(
                MsgKind.GETS, block, now=self._read_now(),
                exp=exp if renewable else None,
                meta={"expired": renewable, "epoch": self.rollover.epoch},
            )
        else:
            entry.meta["gets_out"] = False
            self._maybe_release(block)

    def _on_renew(self, msg: Message, epoch: int) -> None:
        block = msg.addr
        self.stats.renews_received += 1
        exp = self.rollover.clamp(msg.exp, epoch)
        if self.sanitizer is not None:
            self._emit(EV.L1_RENEW, block, exp=exp,
                       epoch=self.rollover.epoch)
        line = self.cache._map.get(block)
        if line is None or line.value is None:
            # A RENEW raced a rollover flush and the stale copy is gone:
            # fall back to refetching the whole block.
            entry = self.mshr.get(block)
            if entry is not None and entry.waiting_loads:
                self.send_to_l2(
                    MsgKind.GETS, block, now=self._read_now(), exp=None,
                    meta={"expired": False, "epoch": self.rollover.epoch},
                )
                entry.meta["gets_out"] = True
            return
        line.state = L1State.V
        line.exp = exp
        entry = self.mshr.get(block)
        if entry is not None:
            self._deliver_loads(block, entry, line.value, 0, exp,
                                msg.meta.get("arrival", -1))

    def _on_ack(self, msg: Message, epoch: int) -> None:
        ver = self.rollover.clamp(msg.ver, epoch)
        self._advance_write(ver)  # rules 2-3: the writer moves to the write's time
        self._complete_store(msg, ver)

    def _complete_store(self, msg: Message, ver: int) -> None:
        block = msg.addr
        record: MemOpRecord = msg.meta["record"]
        warp: Warp = msg.meta["warp"]
        entry = self.mshr.get(block)
        if entry is None or (record, warp) not in entry.pending_stores:
            raise self.unhandled("II", msg.kind, f"no pending store {record!r}")
        entry.pending_stores.remove((record, warp))
        record.logical_ts = self._ts_key(ver)
        record.order_key = msg.meta.get("arrival", -1)
        if record.kind is MemOpKind.ATOMIC:
            record.read_value = msg.value  # the value the RMW observed
        self.complete(record, warp)
        line = self.cache._map.get(block)
        if self.sanitizer is not None:
            copy_exp = (line.exp if line is not None
                        and line.state is L1State.V else None)
            self._emit(EV.L1_STORE_ACK, block, ver=ver,
                       now_after=self._write_now(), copy_exp=copy_exp,
                       view="write", op=record.seq,
                       epoch=msg.meta.get("epoch", self.rollover.epoch),
                       cur_epoch=self.rollover.epoch)
        if not entry.pending_stores:
            # Final ack: the cached copy (if any) is now logically expired
            # (the write's ver exceeded the block's last lease), so VI -> I.
            if (line is not None and line.state is L1State.V
                    and not entry.waiting_loads):
                self.cache.remove(block)
                self.stats.self_invalidations += 1
                if self.sanitizer is not None:
                    self._emit(EV.L1_SELF_INVAL, block,
                               reason="post_store_vi")
        self._maybe_release(block)

    # ------------------------------------------------------------------
    # Rollover (paper §III-D)
    # ------------------------------------------------------------------
    def rollover_flush(self) -> None:
        """Zero the logical clock and invalidate every entry; blocks with
        outstanding MSHR traffic keep their entries (conceptual II)."""
        self.stats.flushes += 1
        if self.sanitizer is not None:
            self._emit(EV.L1_ROLLOVER, 0, epoch=self.rollover.epoch,
                       now=self.now)
        self.clock.reset()
        for line in list(self.cache.lines()):
            if line.addr in self.mshr:
                line.value = None      # stale data must not satisfy RENEWs
                line.exp = 0
                line.state = L1State.IV
            else:
                self.cache.remove(line.addr)
                self.stats.self_invalidations += 1
