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
from repro.common.types import L1State, L2State, MemOpKind, MsgKind
from repro.coherence.base import L1ControllerBase, L2ControllerBase
from repro.gpu.warp import MemOpRecord, Warp
from repro.mem.cache_array import CacheLine
from repro.sanitize.events import EventKind as EV


class MESIL1Controller(L1ControllerBase):
    """Write-through L1 under the MESI directory."""

    protocol_name = "MESI"
    serializes_stores = True

    def __init__(self, core_id, engine, cfg, noc, amap):
        super().__init__(core_id, engine, cfg, noc, amap, L1State.I)

    # ------------------------------------------------------------------
    def _hit(self, line: CacheLine) -> bool:
        return line.state is L1State.V

    def _load(self, record: MemOpRecord, warp: Warp) -> None:
        block = self.block_of(record.addr)
        line = self.cache._map.get(block)
        if line is not None and self._hit(line):
            self.stats.loads += 1
            self.stats.load_hits += 1
            if self.sanitizer is not None:
                self._emit(EV.L1_LOAD_HIT, block)
            record.read_value = line.value
            record.logical_ts = self.engine.now
            record.order_key = -1
            line.touch()
            self.complete(record, warp, delay=self.cfg.l1.hit_latency)
            return
        self.stats.loads += 1
        self.stats.load_misses += 1
        if self.sanitizer is not None:
            self._emit(EV.L1_LOAD_MISS, block)
        entry = self.mshr.allocate(block)
        entry.waiting_loads.append((record, warp))
        if entry.meta.get("gets_out"):
            return
        if line is None:
            line = self.cache.insert(block, L1State.IV, self._on_evict)
        line.state = L1State.IV
        line.pinned = True
        entry.meta["gets_out"] = True
        self.send_to_l2(MsgKind.GETS, block)

    def _store_or_atomic(self, record: MemOpRecord, warp: Warp) -> None:
        block = self.block_of(record.addr)
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
        recall = bool(msg.meta.get("recall"))
        self._invalidate(msg.addr, recall=recall)
        self.send_to_l2(MsgKind.INV_ACK, msg.addr,
                        meta={"requester": msg.meta.get("requester"),
                              "recall": recall})

    def _invalidate(self, block: int, **event) -> None:
        """Drop ``block``'s readable copy; ``event`` is the extra fields
        of the sanitizer's ``L1_INV`` event."""
        self.stats.invalidations_received += 1
        line = self.cache._map.get(block)
        entry = self.mshr.get(block)
        dropped = line is not None and line.state is L1State.V
        if self.sanitizer is not None:
            self._emit(EV.L1_INV, block, dropped=dropped, **event)
        if dropped:
            self.cache.remove(block)
        if entry is not None and entry.meta.get("gets_out"):
            # Fetch in flight: the fill must not install a stale copy, and
            # only loads already waiting may consume it (peekaboo). This
            # applies whether or not a tag entry survives (it may have been
            # dropped by an earlier invalidated fill).
            entry.meta["inv_after_fill"] = True
            entry.meta.setdefault("safe_count", len(entry.waiting_loads))


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
        #: Bumped whenever a line's ``inv_pending`` or a block's recall
        #: count changes (an input of :meth:`wait_key`).
        self._holds = 0

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

    def wait_key(self) -> tuple:
        return (self.cache.version, self.mshr.version, self._holds)

    def _retry_check(self, msg: Message):
        # Exactly the conditions under which re-entering the handler would
        # block again without side effects (stats are ``_counted``-guarded,
        # and the handler's ``can_allocate`` fail is conservatively left to
        # the full path; INV_ACKs are never retried).
        block = msg.addr
        cache_map = self.cache._map
        entries = self.mshr._entries
        capacity = self.mshr.capacity
        recalls = self._recalls
        valid = L2State.V

        def check():
            line = cache_map.get(block)
            if line is not None:
                blocked = (line.state is valid
                           and line.meta.get("inv_pending") is not None)
            elif recalls.get(block):
                blocked = True
            else:
                blocked = len(entries) >= capacity and block not in entries
            return self if blocked else None
        return check

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
            self._invalidate_and_write(msg, line, atomic)
            return
        if line is not None and line.state is L2State.IV:
            entry = self.mshr.allocate(block)
            entry.pending_stores.append((msg, atomic))
            return
        self._miss_fetch(msg, block, is_read=False, atomic=atomic)

    def _invalidate_and_write(self, msg: Message, line: CacheLine,
                              atomic: bool) -> None:
        """Invalidate every sharer, *including* the requesting core's L1
        (the writer dropped its own copy at issue, but sibling warps of
        the same SM may have refetched the block since), then apply the
        write: at once without sharers, else when the last ack returns."""
        # Sorted so the invalidation order (and thus timing) never
        # depends on set iteration order, i.e. on PYTHONHASHSEED.
        sharers = sorted(line.sharers)
        if not sharers:
            self._apply_write(msg, line, atomic)
            return
        # Block the line until all acks return.
        line.meta["inv_pending"] = {
            "remaining": len(sharers), "msg": msg, "atomic": atomic,
        }
        self._holds += 1
        line.pinned = True  # not evictable while collecting acks
        line.sharers.clear()
        for sharer in sharers:
            self.stats.invalidations_sent += 1
            self.send(sharer, MsgKind.INV, line.addr,
                      meta={"requester": msg.src},
                      delay=self.cfg.l2_per_bank.hit_latency)

    def _on_inv_ack(self, msg: Message) -> None:
        if msg.meta.get("recall"):
            self._holds += 1
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
            self._holds += 1
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
        self._recall(line)
        line.sharers.clear()
        if line.dirty:
            self.writeback_to_dram(line.addr, line.value)

    def _recall(self, line: CacheLine) -> None:
        """Inclusive directory: recall every sharer's copy of an evicted
        line (sorted: the recall order must not depend on set iteration
        order) and block re-allocation of the address until every ack
        returns."""
        sharers = sorted(line.sharers)
        if sharers:
            self._recalls[line.addr] = (self._recalls.get(line.addr, 0)
                                        + len(sharers))
            self._holds += 1
        for sharer in sharers:
            self.stats.invalidations_sent += 1
            self.send(sharer, MsgKind.INV, line.addr, meta={"recall": True})
