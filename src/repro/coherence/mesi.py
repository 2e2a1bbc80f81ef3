"""MESI-style directory coherence with write-through L1s — the paper's SC
baseline (Figs. 1, 8, 9 are normalized to it).

The L2 directory tracks the sharer set of every block. A store (GETX, which
carries the write-through data) must **invalidate every sharer and collect
their acks** before it can be acknowledged — this preserves write atomicity
(and hence SC with the in-order core policy) but makes store latency a
round-trip *plus* an invalidation round-trip under sharing, which is exactly
the overhead the paper measures in Fig. 1c.

While an invalidation is in flight the directory blocks the line (requests
retry), so no core can observe the new value before the store completes.
MESI also needs five virtual networks for deadlock freedom (request /
response / invalidate / inv-ack / writeback), which the energy model charges
it for.

State bookkeeping follows the same representation as the other protocols:
data-bearing states in the tag array, store transients in the MSHR. The
directory content lives in ``line.sharers`` at the L2.
"""

from __future__ import annotations

from repro.common.messages import Message
from repro.common.types import AccessOutcome, L1State, L2State, MemOpKind, MsgKind
from repro.coherence.base import L1ControllerBase, L2ControllerBase
from repro.gpu.warp import MemOpRecord, Warp
from repro.mem.cache_array import CacheLine
from repro.sanitize.events import EventKind as EV

RETRY_DELAY = 8


class MESIL1Controller(L1ControllerBase):
    """Write-through L1 under the MESI directory."""

    protocol_name = "MESI"

    def __init__(self, core_id, engine, cfg, noc, amap):
        super().__init__(core_id, engine, cfg, noc, amap, L1State.I)

    # ------------------------------------------------------------------
    def access(self, record: MemOpRecord, warp: Warp) -> AccessOutcome:
        if record.kind is MemOpKind.LOAD:
            return self._load(record, warp)
        return self._store_or_atomic(record, warp)

    def would_stall(self, kind: MemOpKind, addr: int) -> bool:
        # Mirrors the STALL exits of _load/_store_or_atomic below — keep in
        # sync (True must imply access() would STALL; see the base class).
        shift = self.amap._block_shift
        block = (addr >> shift) << shift
        mshr = self.mshr
        entry = mshr._entries.get(block)
        if kind is MemOpKind.LOAD:
            line = self.cache._map.get(block)
            if line is not None and line.state is L1State.V:
                return False
            if entry is None and len(mshr._entries) >= mshr.capacity:
                return True
            return line is None and not self.cache.can_allocate(block)
        if entry is not None and entry.pending_stores:
            return True
        return entry is None and len(mshr._entries) >= mshr.capacity

    def _load(self, record: MemOpRecord, warp: Warp) -> AccessOutcome:
        block = self.block_of(record.addr)
        line = self.cache._map.get(block)
        if line is not None and line.state is L1State.V:
            self.stats.loads += 1
            self.stats.load_hits += 1
            if self.sanitizer is not None:
                self._emit(EV.L1_LOAD_HIT, block)
            record.read_value = line.value
            record.logical_ts = self.engine.now
            record.order_key = -1
            line.touch()
            self.complete(record, warp, delay=self.cfg.l1.hit_latency)
            return AccessOutcome.HIT
        entries = self.mshr._entries
        entry = entries.get(block)
        if entry is None and len(entries) >= self.mshr.capacity:
            return AccessOutcome.STALL
        if line is None and not self.cache.can_allocate(block):
            return AccessOutcome.STALL
        # Count only after the stall exits, so replayed accesses count once.
        self.stats.loads += 1
        self.stats.load_misses += 1
        if self.sanitizer is not None:
            self._emit(EV.L1_LOAD_MISS, block)
        entry = self.mshr.allocate(block)
        entry.waiting_loads.append((record, warp))
        if entry.meta.get("gets_out"):
            return AccessOutcome.MISS
        if line is None:
            line = self.cache.insert(block, L1State.IV, self._on_evict)
        line.state = L1State.IV
        line.pinned = True
        entry.meta["gets_out"] = True
        self.send_to_l2(MsgKind.GETS, block)
        return AccessOutcome.MISS

    def _store_or_atomic(self, record: MemOpRecord, warp: Warp) -> AccessOutcome:
        block = self.block_of(record.addr)
        entries = self.mshr._entries
        entry = entries.get(block)
        if entry is not None and entry.pending_stores:
            # Same-block stores serialize until the previous ack returns.
            return AccessOutcome.STALL
        if entry is None and len(entries) >= self.mshr.capacity:
            return AccessOutcome.STALL
        self.count_access(record)
        if self.sanitizer is not None:
            self._emit(EV.L1_STORE_ISSUE, block,
                       atomic=record.kind is MemOpKind.ATOMIC)
        entry = self.mshr.allocate(block)
        entry.pending_stores.append((record, warp))
        line = self.cache._map.get(block)
        if line is not None and line.state is L1State.V:
            self.cache.remove(block)  # write-through, write-no-allocate
            self.stats.self_invalidations += 1
            if self.sanitizer is not None:
                self._emit(EV.L1_SELF_INVAL, block, reason="write_through")
        elif line is not None:
            line.pinned = True
        kind = (MsgKind.ATOMIC if record.kind is MemOpKind.ATOMIC
                else MsgKind.GETX)
        self.send_to_l2(kind, block, value=record.value,
                        meta={"record": record, "warp": warp})
        return AccessOutcome.MISS

    def _on_evict(self, line: CacheLine) -> None:
        self.stats.evictions += 1
        # Silent eviction; the directory over-approximates sharers (its INV
        # to a non-sharer is acked harmlessly), as in coarse GPU directories.
        if self.sanitizer is not None:
            self._emit(EV.L1_EVICT, line.addr, state=line.state.name)

    # ------------------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        if msg.kind is MsgKind.DATA:
            self._on_data(msg)
        elif msg.kind is MsgKind.ACK:
            self._on_ack(msg)
        elif msg.kind is MsgKind.INV:
            self._on_inv(msg)
        else:
            raise self.unhandled("-", msg.kind, f"addr=0x{msg.addr:x}")

    def _on_data(self, msg: Message) -> None:
        block = msg.addr
        entry = self.mshr.get(block)
        if msg.meta.get("atomic"):
            self._complete_store(msg, read_value=msg.value)
            return
        line = self.cache._map.get(block)
        inv_after = entry is not None and entry.meta.pop("inv_after_fill", False)
        # Peekaboo race: loads that merged into the MSHR *after* an INV
        # arrived must not consume this (now stale) fill — their warp may
        # already have observed newer data elsewhere. Deliver the fill only
        # to the loads that were waiting when the INV arrived and refetch
        # for the rest.
        safe_count = (entry.meta.pop("safe_count", None)
                      if entry is not None else None)
        if line is not None:
            if inv_after:
                self.cache.remove(block)
            else:
                line.state = L1State.V
                line.value = msg.value
        if self.sanitizer is not None:
            self._emit(EV.L1_FILL, block,
                       installed=line is not None and not inv_after)
        if entry is not None:
            waiting = entry.waiting_loads
            if inv_after and safe_count is not None:
                deliver, keep = waiting[:safe_count], waiting[safe_count:]
            else:
                deliver, keep = waiting, []
            granted_at = msg.meta.get("granted_at", self.engine.now)
            for record, warp in deliver:
                record.read_value = msg.value
                # Witness position: when the directory granted the value
                # (but never before this op issued — merged loads).
                record.logical_ts = max(granted_at, record.issue_cycle)
                record.order_key = msg.meta.get("arrival", -1)
                self.complete(record, warp)
            entry.waiting_loads = keep
            if keep:
                entry.meta["gets_out"] = True
                self.send_to_l2(MsgKind.GETS, block)
            else:
                entry.meta["gets_out"] = False
            self._maybe_release(block)

    def _on_ack(self, msg: Message) -> None:
        self._complete_store(msg)

    def _complete_store(self, msg: Message, read_value=None) -> None:
        block = msg.addr
        record: MemOpRecord = msg.meta["record"]
        warp: Warp = msg.meta["warp"]
        entry = self.mshr.get(block)
        if entry is None or (record, warp) not in entry.pending_stores:
            raise self.unhandled("II", msg.kind, f"no pending store {record!r}")
        entry.pending_stores.remove((record, warp))
        record.logical_ts = msg.meta.get("completed_at", self.engine.now)
        record.order_key = msg.meta.get("arrival", -1)
        if read_value is not None:
            record.read_value = read_value
        if self.sanitizer is not None:
            self._emit(EV.L1_STORE_ACK, block,
                       completed_at=record.logical_ts)
        self.complete(record, warp)
        self._maybe_release(block)

    def _on_inv(self, msg: Message) -> None:
        block = msg.addr
        self.stats.invalidations_received += 1
        line = self.cache._map.get(block)
        entry = self.mshr.get(block)
        dropped = line is not None and line.state is L1State.V
        if self.sanitizer is not None:
            self._emit(EV.L1_INV, block, dropped=dropped,
                       recall=bool(msg.meta.get("recall")))
        if dropped:
            self.cache.remove(block)
        if entry is not None and entry.meta.get("gets_out"):
            # Fetch in flight: the fill must not install a stale copy, and
            # only loads already waiting may consume it (peekaboo). This
            # applies whether or not a tag entry survives (it may have been
            # dropped by an earlier invalidated fill).
            entry.meta["inv_after_fill"] = True
            entry.meta.setdefault("safe_count", len(entry.waiting_loads))
        self.send_to_l2(MsgKind.INV_ACK, block,
                        meta={"requester": msg.meta.get("requester"),
                              "recall": bool(msg.meta.get("recall"))})

    def _maybe_release(self, block: int) -> None:
        entry = self.mshr.get(block)
        if entry is not None and entry.empty:
            self.mshr.release(block)
            line = self.cache._map.get(block)
            if line is not None:
                line.pinned = False
                if line.state is L1State.IV:
                    self.cache.remove(block)


class MESIL2Controller(L2ControllerBase):
    """Directory bank: sharer tracking + invalidate-before-store-ack."""

    protocol_name = "MESI"

    def __init__(self, bank_id, engine, cfg, noc, amap, dram, backing):
        super().__init__(bank_id, engine, cfg, noc, amap, dram, backing,
                         L2State.I)
        #: Outstanding recall-INV acks per evicted block. While any are
        #: pending the block must not be re-allocated: a refetched line
        #: starts with an empty sharer set, so a store could apply while
        #: an old sharer's recall is still in flight — breaking write
        #: atomicity (the sanitizer's mesi.write.single_writer catch).
        self._recalls: dict = {}

    # ------------------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        if msg.kind is MsgKind.GETS:
            self._on_gets(msg)
        elif msg.kind in (MsgKind.GETX, MsgKind.ATOMIC):
            self._on_getx(msg, atomic=msg.kind is MsgKind.ATOMIC)
        elif msg.kind is MsgKind.INV_ACK:
            self._on_inv_ack(msg)
        else:
            raise self.unhandled("-", msg.kind, f"addr=0x{msg.addr:x}")

    def _retry(self, msg: Message) -> None:
        # Built once per message and cached in its meta. While the blocking
        # condition still holds the poll re-arms itself with pure reads only;
        # the guard is exactly the set of conditions under which re-entering
        # the handler would call ``_retry`` again without side effects (stats
        # are ``_counted``-guarded, and the handler's ``can_allocate`` fail is
        # conservatively left to the full path). Anything else re-enters the
        # kind-specific handler, identical to re-entering ``on_message``
        # (pure dispatch; INV_ACKs are never retried).
        meta = msg.meta
        cb = meta.get("_retry_cb")
        if cb is None:
            block = msg.addr
            cache_map = self.cache._map
            entries = self.mshr._entries
            capacity = self.mshr.capacity
            recalls = self._recalls
            engine = self.engine
            schedule = engine.schedule
            valid = L2State.V

            def blocked() -> bool:
                line = cache_map.get(block)
                if line is not None:
                    return (line.state is valid
                            and line.meta.get("inv_pending") is not None)
                if recalls.get(block):
                    return True
                return len(entries) >= capacity and block not in entries

            if msg.kind is MsgKind.GETS:
                def cb() -> None:
                    if blocked():
                        schedule(engine.now + RETRY_DELAY, cb)
                    else:
                        self._on_gets(msg)
            else:
                atomic = msg.kind is MsgKind.ATOMIC

                def cb() -> None:
                    if blocked():
                        schedule(engine.now + RETRY_DELAY, cb)
                    else:
                        self._on_getx(msg, atomic)
            meta["_retry_cb"] = cb
        engine = self.engine
        engine.schedule(engine.now + RETRY_DELAY, cb)

    @staticmethod
    def _busy(line: CacheLine) -> bool:
        return line.meta.get("inv_pending") is not None

    # ------------------------------------------------------------------
    def _on_gets(self, msg: Message) -> None:
        if not msg.meta.get("_counted"):
            msg.meta["_counted"] = True
            self.stats.gets += 1
        block = msg.addr
        line = self.cache._map.get(block)
        if line is not None and line.state is L2State.V:
            if self._busy(line):
                self._retry(msg)
                return
            self.stats.hits += 1
            line.sharers.add(msg.src)
            line.touch()
            if self.sanitizer is not None:
                self._emit(EV.L2_READ_GRANT, block, peer=msg.src[1],
                           sharers=len(line.sharers))
            self.send(msg.src, MsgKind.DATA, block, value=line.value,
                      meta={"arrival": self.next_arrival(),
                            "granted_at": self.engine.now},
                      delay=self.cfg.l2_per_bank.hit_latency)
            return
        if line is not None and line.state is L2State.IV:
            entry = self.mshr.allocate(block)
            entry.waiting_loads.append(msg)
            return
        self._miss_fetch(msg, block, is_read=True)

    def _on_getx(self, msg: Message, atomic: bool) -> None:
        if not msg.meta.get("_counted"):
            msg.meta["_counted"] = True
            if atomic:
                self.stats.atomics += 1
            else:
                self.stats.writes += 1
        block = msg.addr
        line = self.cache._map.get(block)
        if line is not None and line.state is L2State.V:
            if self._busy(line):
                self._retry(msg)
                return
            self.stats.hits += 1
            # Invalidate every sharer, *including* the requesting core's L1:
            # the writer dropped its own copy at issue, but sibling warps of
            # the same SM may have refetched the block since.
            # Sorted so the invalidation order (and thus timing) never
            # depends on set iteration order, i.e. on PYTHONHASHSEED.
            sharers = sorted(line.sharers)
            if not sharers:
                self._apply_write(msg, line, atomic)
                return
            # Invalidate every sharer; block the line until all acks return.
            line.meta["inv_pending"] = {
                "remaining": len(sharers), "msg": msg, "atomic": atomic,
            }
            line.pinned = True  # not evictable while collecting acks
            line.sharers.clear()
            for sharer in sharers:
                self.stats.invalidations_sent += 1
                self.send(sharer, MsgKind.INV, block,
                          meta={"requester": msg.src},
                          delay=self.cfg.l2_per_bank.hit_latency)
            return
        if line is not None and line.state is L2State.IV:
            entry = self.mshr.allocate(block)
            entry.pending_stores.append((msg, atomic))
            return
        self._miss_fetch(msg, block, is_read=False, atomic=atomic)

    def _on_inv_ack(self, msg: Message) -> None:
        if msg.meta.get("recall"):
            remaining = self._recalls.get(msg.addr, 0) - 1
            if remaining > 0:
                self._recalls[msg.addr] = remaining
            else:
                self._recalls.pop(msg.addr, None)
            return
        line = self.cache._map.get(msg.addr)
        if line is None:
            return  # stale ack for an already-evicted block
        pending = line.meta.get("inv_pending")
        if pending is None:
            return  # nothing is waiting
        pending["remaining"] -= 1
        if pending["remaining"] == 0:
            del line.meta["inv_pending"]
            line.pinned = False
            self._apply_write(pending["msg"], line, pending["atomic"])

    def _apply_write(self, msg: Message, line: CacheLine, atomic: bool) -> None:
        old_value = line.value
        line.value = msg.value
        line.dirty = True
        line.touch()
        hit_lat = self.cfg.l2_per_bank.hit_latency
        # Serialization point: the write is applied (and the directory
        # unblocked) now; the ack merely travels back afterwards.
        completed_at = self.engine.now
        arrival = self.next_arrival()
        if self.sanitizer is not None:
            self._emit(EV.L2_ATOMIC_APPLY if atomic else EV.L2_WRITE_APPLY,
                       msg.addr, completed_at=completed_at, arrival=arrival)
        meta = {"record": msg.meta.get("record"), "warp": msg.meta.get("warp"),
                "arrival": arrival, "completed_at": completed_at}
        if atomic:
            meta["atomic"] = True
            self.send(msg.src, MsgKind.DATA, msg.addr, value=old_value,
                      meta=meta, delay=hit_lat)
        else:
            self.send(msg.src, MsgKind.ACK, msg.addr, meta=meta, delay=hit_lat)

    # ------------------------------------------------------------------
    def _miss_fetch(self, msg: Message, block: int, is_read: bool,
                    atomic: bool = False) -> None:
        if self._recalls.get(block):
            # The block was evicted with sharers and their recall acks are
            # still outstanding; refetching now would resurrect the line
            # with an empty sharer set while stale copies live on.
            self._retry(msg)
            return
        if not (self.mshr.has_free() or block in self.mshr) \
                or not self.cache.can_allocate(block):
            self._retry(msg)
            return
        self.stats.misses += 1
        line = self.cache.insert(block, L2State.IV, self._on_evict)
        line.pinned = True
        line.sharers.clear()
        entry = self.mshr.allocate(block)
        if is_read:
            entry.waiting_loads.append(msg)
        else:
            entry.pending_stores.append((msg, atomic))
        self.fetch_from_dram(block, self._on_dram_data)

    def _on_dram_data(self, block: int) -> None:
        line = self.cache._map.get(block)
        entry = self.mshr.get(block)
        if line is None or entry is None:
            raise self.unhandled("I", "MEMDATA", f"orphan fill 0x{block:x}")
        line.state = L2State.V
        line.pinned = False
        line.value = self.read_backing(block)
        reads, entry.waiting_loads = entry.waiting_loads, []
        writes, entry.pending_stores = entry.pending_stores, []
        self.mshr.release_if_empty(block)
        for req in reads:
            self.on_message(req)
        for req, _atomic in writes:
            self.on_message(req)

    def _on_evict(self, line: CacheLine) -> None:
        self.stats.evictions += 1
        if self.sanitizer is not None:
            self._emit(EV.L2_EVICT, line.addr, sharers=len(line.sharers))
        # Inclusive directory: recall every sharer's copy (sorted: the
        # recall order must not depend on set iteration order) and block
        # re-allocation of the address until every ack returns.
        sharers = sorted(line.sharers)
        if sharers:
            self._recalls[line.addr] = (self._recalls.get(line.addr, 0)
                                        + len(sharers))
        for sharer in sharers:
            self.stats.invalidations_sent += 1
            self.send(sharer, MsgKind.INV, line.addr, meta={"recall": True})
        line.sharers.clear()
        if line.dirty:
            self.writeback_to_dram(line.addr, line.value)
