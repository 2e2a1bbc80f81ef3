"""TC-strong and TC-weak: physical-timestamp GPU coherence (Singh et al.,
HPCA 2013) — the paper's strongest prior-art baselines.

Both protocols lease L1 copies for a fixed number of *physical* cycles
against a globally synchronized on-chip clock (here: the simulation clock).
A copy self-invalidates when the clock passes its lease.

**TC-strong (TCS)** keeps write atomicity and can support SC: a store is
acknowledged only once every outstanding lease for the block has expired, so
the L2 stalls the ack until ``block.exp`` passes. That lease-expiry wait is
precisely the store latency RCC eliminates by moving to logical time.

**TC-weak (TCW)** acknowledges stores immediately but returns the *global
write completion time* (GWCT = the lease expiry at write time); the core
accumulates a per-warp GWCT and only FENCEs wait for it. Write atomicity is
lost (stale copies remain readable until their leases expire), so TCW cannot
implement SC — it runs under the WO core policy.

L1 organization matches :mod:`repro.core.rcc_l1`: the tag array holds
data-bearing states, store transients live in the MSHR. Unlike RCC's VI
optimization, a store invalidates the writer's own L1 copy (write-through,
write-no-allocate), and TCS additionally serializes same-block stores in the
L1 MSHR until the previous ack returns (the paper's observation that store
acks can block same-cacheline stores from other warps).
"""

from __future__ import annotations

from typing import Dict

from repro.common.messages import Message
from repro.common.types import AccessOutcome, L1State, L2State, MemOpKind, MsgKind
from repro.coherence.base import L1ControllerBase, L2ControllerBase
from repro.core.lease import lease_expired, lease_valid, post_lease
from repro.gpu.warp import MemOpRecord, Warp
from repro.mem.cache_array import CacheLine
from repro.sanitize.events import EventKind as EV

RETRY_DELAY = 8


class TCL1Controller(L1ControllerBase):
    """Shared L1 for TC-strong and TC-weak (``strong`` selects the mode)."""

    def __init__(self, core_id, engine, cfg, noc, amap, strong: bool):
        super().__init__(core_id, engine, cfg, noc, amap, L1State.I)
        self.strong = strong
        self.protocol_name = "TCS" if strong else "TCW"
        #: TC-weak: per-warp global write completion time (max over acks).
        self._gwct: Dict[int, int] = {}

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
        entries = mshr._entries
        entry = entries.get(block)
        if kind is MemOpKind.LOAD:
            line = self.cache._map.get(block)
            if (line is not None and line.state is L1State.V
                    and self.engine.now <= line.exp):  # lease_valid, inlined
                return False
            if entry is None and len(entries) >= mshr.capacity:
                return True
            return line is None and not self.cache.can_allocate(block)
        if self.strong and entry is not None and entry.pending_stores:
            return True
        return entry is None and len(entries) >= mshr.capacity

    def _load(self, record: MemOpRecord, warp: Warp) -> AccessOutcome:
        block = self.block_of(record.addr)
        line = self.cache._map.get(block)
        now = self.engine.now

        if (line is not None and line.state is L1State.V
                and lease_valid(now, line.exp)):
            self.stats.loads += 1
            self.stats.load_hits += 1
            if self.sanitizer is not None:
                self._emit(EV.L1_LOAD_HIT, block, now=now, exp=line.exp)
            record.read_value = line.value
            record.logical_ts = now
            record.order_key = -1
            line.touch()
            self.complete(record, warp, delay=self.cfg.l1.hit_latency)
            return AccessOutcome.HIT

        expired = (line is not None and line.state is L1State.V
                   and lease_expired(now, line.exp))

        entries = self.mshr._entries
        entry = entries.get(block)
        if entry is None and len(entries) >= self.mshr.capacity:
            return AccessOutcome.STALL
        if line is None and not self.cache.can_allocate(block):
            return AccessOutcome.STALL
        # Count only after the stall exits, so replayed accesses count once.
        self.stats.loads += 1
        if expired:
            self.stats.load_expired += 1
        self.stats.load_misses += 1
        if self.sanitizer is not None:
            self._emit(EV.L1_LOAD_MISS, block, now=now, expired=expired)
        entry = self.mshr.allocate(block)
        entry.waiting_loads.append((record, warp))
        if entry.meta.get("gets_out"):
            return AccessOutcome.MISS
        if line is None:
            line = self.cache.insert(block, L1State.IV, self._on_evict)
        else:
            line.state = L1State.IV
        line.pinned = True
        entry.meta["gets_out"] = True
        self.send_to_l2(MsgKind.GETS, block, now=now,
                        meta={"expired": expired})
        return AccessOutcome.MISS

    def _store_or_atomic(self, record: MemOpRecord, warp: Warp) -> AccessOutcome:
        block = self.block_of(record.addr)
        entries = self.mshr._entries
        entry = entries.get(block)
        if self.strong and entry is not None and entry.pending_stores:
            # TCS: same-block stores serialize in the MSHR until the ack.
            return AccessOutcome.STALL
        if entry is None and len(entries) >= self.mshr.capacity:
            return AccessOutcome.STALL
        self.count_access(record)
        if self.sanitizer is not None:
            self._emit(EV.L1_STORE_ISSUE, block, now=self.engine.now,
                       atomic=record.kind is MemOpKind.ATOMIC)
        entry = self.mshr.allocate(block)
        entry.pending_stores.append((record, warp))
        # Write-through, write-no-allocate: drop our own stale copy.
        line = self.cache._map.get(block)
        if line is not None and line.state is L1State.V:
            self.cache.remove(block)
            self.stats.self_invalidations += 1
            if self.sanitizer is not None:
                self._emit(EV.L1_SELF_INVAL, block, reason="write_through")
        elif line is not None:
            line.pinned = True
        kind = (MsgKind.ATOMIC if record.kind is MemOpKind.ATOMIC
                else MsgKind.WRITE)
        self.send_to_l2(kind, block, now=self.engine.now, value=record.value,
                        meta={"record": record, "warp": warp})
        return AccessOutcome.MISS

    def _on_evict(self, line: CacheLine) -> None:
        self.stats.evictions += 1
        if self.sanitizer is not None:
            self._emit(EV.L1_EVICT, line.addr, state=line.state.name,
                       exp=line.exp)

    # ------------------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        if msg.kind is MsgKind.DATA:
            self._on_data(msg)
        elif msg.kind is MsgKind.ACK:
            self._on_ack(msg)
        else:
            raise self.unhandled("-", msg.kind, f"addr=0x{msg.addr:x}")

    def _on_data(self, msg: Message) -> None:
        block = msg.addr
        entry = self.mshr.get(block)
        if msg.meta.get("atomic"):
            self._complete_store(msg, read_value=msg.value)
            return
        line = self.cache._map.get(block)
        if line is not None:
            line.state = L1State.V
            line.exp = msg.exp
            line.value = msg.value
        if self.sanitizer is not None:
            self._emit(EV.L1_FILL, block, exp=msg.exp,
                       installed=line is not None)
        if entry is not None:
            granted_at = msg.meta.get("granted_at", self.engine.now)
            keep = []
            for record, warp in entry.waiting_loads:
                if lease_valid(record.issue_cycle, msg.exp):
                    record.read_value = msg.value
                    # Witness position: anywhere inside the lease window is
                    # sound; pick the latest of the grant and the issue (a
                    # merged load cannot sit before its own program order).
                    record.logical_ts = max(granted_at, record.issue_cycle)
                    record.order_key = msg.meta.get("arrival", -1)
                    self.complete(record, warp)
                else:
                    # The lease expired before this load even issued: the
                    # warp may already be past a newer write — refetch.
                    keep.append((record, warp))
            entry.waiting_loads = keep
            if keep:
                entry.meta["gets_out"] = True
                self.send_to_l2(MsgKind.GETS, block, now=self.engine.now)
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
        if not self.strong:
            gwct = msg.meta.get("gwct", self.engine.now)
            key = warp.warp_id
            self._gwct[key] = max(self._gwct.get(key, 0), gwct)
            if self.sanitizer is not None:
                self._emit(EV.L1_STORE_ACK, block,
                           completed_at=record.logical_ts,
                           gwct=self._gwct[key], warp=key)
        elif self.sanitizer is not None:
            self._emit(EV.L1_STORE_ACK, block,
                       completed_at=record.logical_ts)
        self.complete(record, warp)
        self._maybe_release(block)

    def _maybe_release(self, block: int) -> None:
        entry = self.mshr.get(block)
        if entry is not None and entry.empty:
            self.mshr.release(block)
            line = self.cache._map.get(block)
            if line is not None:
                line.pinned = False
                if line.state is L1State.IV:
                    self.cache.remove(block)

    # ------------------------------------------------------------------
    def fence_block_until(self, warp: Warp) -> int:
        """TCW: the fence waits until the warp's GWCT has passed."""
        if self.strong:
            return self.engine.now
        return self._gwct.get(warp.warp_id, 0)


class TCL2Controller(L2ControllerBase):
    """Shared L2 bank for TC-strong / TC-weak."""

    def __init__(self, bank_id, engine, cfg, noc, amap, dram, backing,
                 strong: bool):
        super().__init__(bank_id, engine, cfg, noc, amap, dram, backing,
                         L2State.I)
        self.strong = strong
        self.protocol_name = "TCS" if strong else "TCW"
        self.tc_cfg = cfg.tc
        #: Evicted-but-unexpired lease bookkeeping: addr -> exp. Each parked
        #: entry occupies an MSHR slot until its lease expires (Singh et
        #: al.'s mechanism; it is why TC eats into L2 MSHR capacity).
        self.parked: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Per-block lifetime prediction (Singh et al.)
    #
    # Written blocks get the minimum lease (so TCS store stalls and TCW
    # fence GWCTs stay small); blocks whose copies expire without having
    # been written since grow their lease. The *physical* scale of these
    # leases must straddle real reuse distances — the structural weakness
    # that RCC's logical, self-scaling leases remove.
    # ------------------------------------------------------------------
    def _lease_for(self, line: CacheLine) -> int:
        if not self.tc_cfg.predictor_enabled:
            return self.tc_cfg.lease_default
        return line.meta.get("tc_lease", self.tc_cfg.lease_default)

    def _predict_on_write(self, line: CacheLine) -> None:
        line.meta["written_since_grant"] = True
        if self.tc_cfg.predictor_enabled:
            line.meta["tc_lease"] = self.tc_cfg.lease_min

    def _predict_on_grant(self, line: CacheLine, was_expired: bool) -> None:
        if not self.tc_cfg.predictor_enabled:
            return
        if was_expired and not line.meta.get("written_since_grant", False):
            # The copy expired but nobody wrote it: lifetime too short.
            line.meta["tc_lease"] = min(self.tc_cfg.lease_max,
                                        self._lease_for(line) * 4)
        line.meta["written_since_grant"] = False

    # ------------------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        if msg.kind is MsgKind.GETS:
            self._on_gets(msg)
        elif msg.kind in (MsgKind.WRITE, MsgKind.ATOMIC):
            self._on_write(msg, atomic=msg.kind is MsgKind.ATOMIC)
        else:
            raise self.unhandled("-", msg.kind, f"addr=0x{msg.addr:x}")

    # ------------------------------------------------------------------
    def _on_gets(self, msg: Message) -> None:
        if not msg.meta.get("_counted"):
            msg.meta["_counted"] = True
            self.stats.gets += 1
        block = msg.addr
        line = self.cache._map.get(block)

        if line is not None and line.state is L2State.V:
            now = self.engine.now
            self.stats.hits += 1
            lease = self._lease_for(line)
            self._predict_on_grant(line, msg.meta.get("expired", False))
            new_exp = max(line.exp, now + lease)
            pending = line.meta.get("pending_acks")
            if self.strong and pending:
                # Stores are already waiting for the current leases to
                # expire: keep serving reads (with the *old* value — a
                # pending write applies at its ack time), but cap the new
                # lease below the EARLIEST pending store's serialization
                # point. Capping at the latest (the old store_busy_until)
                # let a lease granted between two buffered stores cover
                # cycles past the first store's apply time, so an L1 hit
                # could return the pre-store value after that store had
                # serialized — a write-atomicity hole.
                new_exp = min(new_exp, min(pending) - 1)
            line.exp = max(line.exp, new_exp)
            line.touch()
            if self.sanitizer is not None:
                self._emit(EV.L2_READ_GRANT, block, exp=line.exp, now=now,
                           peer=msg.src[1])
            self.send(msg.src, MsgKind.DATA, block, exp=line.exp,
                      value=line.value,
                      meta={"arrival": self.next_arrival(),
                            "granted_at": now},
                      delay=self.cfg.l2_per_bank.hit_latency)
            return
        if line is not None and line.state is L2State.IV:
            entry = self.mshr.allocate(block)
            entry.has_read = True
            entry.waiting_loads.append(msg)
            return
        self._miss_fetch(msg, block, is_read=True)

    def _on_write(self, msg: Message, atomic: bool) -> None:
        if not msg.meta.get("_counted"):
            msg.meta["_counted"] = True
            if atomic:
                self.stats.atomics += 1
            else:
                self.stats.writes += 1
        block = msg.addr
        line = self.cache._map.get(block)

        if line is not None and line.state is L2State.V:
            now = self.engine.now
            self.stats.hits += 1
            hit_lat = self.cfg.l2_per_bank.hit_latency
            self._predict_on_write(line)
            if self.strong:
                # TC-strong: the write *serializes* only once every
                # outstanding lease has expired. Buffer it; reads keep
                # being served the old value until then.
                busy = line.meta.get("store_busy_until", 0)
                ack_at = max(now + hit_lat, post_lease(line.exp), busy + 1)
                line.meta["store_busy_until"] = ack_at
                line.meta.setdefault("pending_acks", []).append(ack_at)
                line.pinned = True  # not evictable with a buffered store
                self.stats.store_lease_wait_cycles += ack_at - (now + hit_lat)
                if self.sanitizer is not None:
                    self._emit(EV.L2_WRITE_BUFFER, block, ack_at=ack_at,
                               exp=line.exp, now=now, atomic=atomic)
                self.engine.schedule(
                    ack_at, lambda: self._apply_strong(msg, block, atomic,
                                                       ack_at))
                return
            # TC-weak: apply and ack immediately; pass back the GWCT (when
            # all current leases expire) for the core's fence bookkeeping.
            old_value = line.value
            line.value = msg.value
            line.dirty = True
            line.touch()
            arrival = self.next_arrival()
            gwct = max(now, line.exp)
            if self.sanitizer is not None:
                self._emit(EV.L2_ATOMIC_APPLY if atomic else
                           EV.L2_WRITE_APPLY, block, completed_at=now,
                           exp=line.exp, gwct=gwct, arrival=arrival)
            meta = {"record": msg.meta.get("record"),
                    "warp": msg.meta.get("warp"),
                    "arrival": arrival,
                    "completed_at": now,
                    "gwct": gwct}
            if atomic:
                meta["atomic"] = True
                self.send(msg.src, MsgKind.DATA, block, value=old_value,
                          meta=meta, delay=hit_lat)
            else:
                self.send(msg.src, MsgKind.ACK, block, meta=meta,
                          delay=hit_lat)
            return
        if line is not None and line.state is L2State.IV:
            entry = self.mshr.allocate(block)
            entry.pending_stores.append(msg)
            return
        self._miss_fetch(msg, block, is_read=False)

    def _apply_strong(self, msg: Message, block: int, atomic: bool,
                      ack_at: int) -> None:
        """TC-strong deferred write application (all leases have expired)."""
        line = self.cache._map.get(block)
        if line is None:
            raise self.unhandled("V", "apply", f"buffered store lost 0x{block:x}")
        old_value = line.value
        line.value = msg.value
        line.dirty = True
        line.touch()
        pending = line.meta.get("pending_acks", [])
        if ack_at in pending:
            pending.remove(ack_at)
        if not pending and line.state is L2State.V:
            line.pinned = False
        arrival = self.next_arrival()
        if self.sanitizer is not None:
            self._emit(EV.L2_ATOMIC_APPLY if atomic else EV.L2_WRITE_APPLY,
                       block, completed_at=ack_at, exp=line.exp,
                       arrival=arrival)
        meta = {"record": msg.meta.get("record"),
                "warp": msg.meta.get("warp"),
                "arrival": arrival,
                "completed_at": ack_at}
        if atomic:
            meta["atomic"] = True
            self.send(msg.src, MsgKind.DATA, block, value=old_value, meta=meta)
        else:
            self.send(msg.src, MsgKind.ACK, block, meta=meta)

    # ------------------------------------------------------------------
    def _miss_fetch(self, msg: Message, block: int, is_read: bool) -> None:
        # Under MSHR pressure this is re-entered once per RETRY_DELAY per
        # parked request — millions of times in lease-heavy sweeps — so the
        # fail path is inlined: the occupancy test reads the MSHR's entry
        # dict directly.
        mshr = self.mshr
        entries = mshr._entries
        if ((len(entries) + len(self.parked) >= mshr.capacity
             and block not in entries)
                or not self._can_allocate(block)):
            # The retry callback is built once per message and cached in
            # its meta. While the bank is still saturated it requeues
            # itself directly: the guard below is exactly this method's
            # short-circuit fail condition, and with no line present the
            # full handler could do nothing else (``_on_gets``/``_on_write``
            # fall straight back here, and ``_can_allocate`` — whose
            # pin-flag side effects must be preserved — is skipped by the
            # ``or`` short-circuit either way). Any other state falls
            # through to the kind-specific handler, which is identical to
            # re-entering ``on_message`` (pure dispatch).
            meta = msg.meta
            cb = meta.get("_retry_cb")
            if cb is None:
                cache_map = self.cache._map
                parked = self.parked
                capacity = mshr.capacity
                engine = self.engine
                schedule = engine.schedule
                if is_read:
                    def cb() -> None:
                        if (cache_map.get(block) is None
                                and len(entries) + len(parked) >= capacity
                                and block not in entries):
                            schedule(engine.now + RETRY_DELAY, cb)
                        else:
                            self._on_gets(msg)
                else:
                    atomic = msg.kind is MsgKind.ATOMIC

                    def cb() -> None:
                        if (cache_map.get(block) is None
                                and len(entries) + len(parked) >= capacity
                                and block not in entries):
                            schedule(engine.now + RETRY_DELAY, cb)
                        else:
                            self._on_write(msg, atomic)
                meta["_retry_cb"] = cb
            engine = self.engine
            engine.schedule(engine.now + RETRY_DELAY, cb)
            return
        self.stats.misses += 1
        line = self.cache.insert(block, L2State.IV, self._on_evict)
        line.pinned = True
        entry = self.mshr.allocate(block)
        if is_read:
            entry.has_read = True
            entry.waiting_loads.append(msg)
        else:
            entry.pending_stores.append(msg)
        self.fetch_from_dram(block, self._on_dram_data)

    def _can_allocate(self, block: int) -> bool:
        """Evicting an unexpired block parks its lease in an MSHR slot
        (Singh et al.); eviction is only refused when a buffered TCS store
        is pending on the victim or no MSHR slot is free to park into."""
        now = self.engine.now
        slot_free = self._mshr_slots_free()
        for line in self.cache.set_lines(block):
            if line.addr == block:
                return True
            if line.state is not L2State.V:
                continue
            if line.meta.get("pending_acks"):
                line.pinned = True
            elif line.exp > now and not slot_free:
                line.pinned = True  # nowhere to park the live lease
            else:
                line.pinned = False
        return self.cache.can_allocate(block)

    def _mshr_slots_free(self) -> bool:
        """Parked leases occupy MSHR capacity alongside real misses."""
        return len(self.mshr._entries) + len(self.parked) < self.mshr.capacity

    def _on_dram_data(self, block: int) -> None:
        line = self.cache._map.get(block)
        entry = self.mshr.get(block)
        if line is None or entry is None:
            raise self.unhandled("I", "MEMDATA", f"orphan fill 0x{block:x}")
        line.state = L2State.V
        line.pinned = False
        line.value = self.read_backing(block)
        # A parked lease survives the round trip through DRAM: a write to
        # the refetched block must still wait for it (TCS correctness).
        line.exp = self.parked.pop(block, 0)
        if self.sanitizer is not None:
            self._emit(EV.L2_FILL, block, exp=line.exp)
        # Replay merged requests in arrival order: reads then writes (the
        # interleaving error is bounded by the fill latency).
        reads, entry.waiting_loads = entry.waiting_loads, []
        writes, entry.pending_stores = entry.pending_stores, []
        entry.has_read = entry.has_write = False
        self.mshr.release_if_empty(block)
        for req in reads:
            self.on_message(req)
        for req in writes:
            self.on_message(req)

    def _on_evict(self, line: CacheLine) -> None:
        self.stats.evictions += 1
        now = self.engine.now
        if self.sanitizer is not None:
            self._emit(EV.L2_EVICT, line.addr, exp=line.exp,
                       parked=line.exp > now)
        if line.exp > now:
            # Park the live lease so a later write still waits it out.
            exp = line.exp
            self.parked[line.addr] = max(self.parked.get(line.addr, 0), exp)
            self.engine.schedule(post_lease(exp),
                                 lambda: self._unpark(line.addr, exp))
        if line.dirty:
            self.writeback_to_dram(line.addr, line.value)

    def _unpark(self, addr: int, exp: int) -> None:
        if self.parked.get(addr, -1) <= exp:
            self.parked.pop(addr, None)
