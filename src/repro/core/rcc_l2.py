"""RCC L2 bank controller (paper Fig. 5, right table).

States: **I**, **V** (stable); **IV** (miss outstanding, mergeable MSHR);
**IAV** (atomic received in I: stalls all other requests for the block until
the line returns from DRAM and the RMW completes).

Responsibilities beyond the FSM proper:

* **instant write permission** — a WRITE in V is acknowledged after the bank
  access latency with ``ver = max(M.now, D.ver, D.exp + 1)``; no sharer
  invalidation, no lease wait (this is the paper's headline mechanism);
* **lease extension** — a GETS carrying the requester's old ``exp`` gets a
  data-less RENEW when the block hasn't been written since (``M.exp >
  D.ver``), shaded additions of Fig. 5;
* **lease prediction** — per-block lease sizing (max on fill, min on write,
  double on renew), §III-E;
* **L2 evictions** — fold ``max(exp + 1, ver)`` into the memory partition's
  ``mnow`` so reloaded blocks can never be read before their last write or
  written under an outstanding lease (§III-D). We fold ``exp + 1`` (not the
  paper's ``exp``) so a post-reload write's version strictly exceeds every
  lease granted before the eviction; with the paper's ``max(exp, ver)`` a
  write acknowledged from the IV state at ``ver == mnow`` could tie exactly
  with an outstanding lease boundary;
* **MSHR write merging** — writes that miss are acknowledged immediately
  with ``ver = max(lastwr, mnow)``; newest-``now`` data wins the merge;
* **rollover** — detects impending timestamp overflow and defers to the
  global :class:`~repro.core.rollover.RolloverManager`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.messages import Message
from repro.common.types import L2State, MsgKind
from repro.coherence.base import RETRY_DELAY, L2ControllerBase
from repro.core.lease import LeasePredictor, post_lease
from repro.mem.cache_array import CacheLine
from repro.sanitize.events import EventKind as EV


class RCCL2Controller(L2ControllerBase):
    """Logical-timestamp L2 bank for RCC (shared by RCC-SC and RCC-WO)."""

    protocol_name = "RCC"

    def __init__(self, bank_id, engine, cfg, noc, amap, dram, backing,
                 rollover):
        super().__init__(bank_id, engine, cfg, noc, amap, dram, backing,
                         L2State.I)
        self.rollover = rollover
        self.predictor = LeasePredictor(cfg.ts)
        self.renew_enabled = cfg.ts.renew_enabled
        self._lease_max2 = cfg.ts.lease_max + 2
        self.frozen = False
        self._frozen_queue: List[Message] = []
        #: DRAM fills completed (an input of :meth:`wait_key`).
        self._fills = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        if self.frozen:
            self._frozen_queue.append(msg)
            return
        # Clamp before the trigger: a request queued across a rollover
        # carries a stale-epoch ``now`` that counts as zero (§III-D), or
        # it would start a new rollover at every presentation.
        epoch = msg.meta.get("epoch", self.rollover.epoch)
        m_now = self.rollover.clamp(msg.now, epoch)
        if self.rollover.maybe_trigger(self._projected_ts(msg, m_now),
                                       self.bank_id):
            self._frozen_queue.append(msg)
            return
        m_exp = (self.rollover.clamp(msg.exp, epoch)
                 if msg.exp is not None and epoch == self.rollover.epoch
                 else None)
        if msg.kind is MsgKind.GETS:
            self._on_gets(msg, m_now, m_exp)
        elif msg.kind is MsgKind.WRITE:
            self._on_write(msg, m_now)
        elif msg.kind is MsgKind.ATOMIC:
            self._on_atomic(msg, m_now)
        else:
            raise self.unhandled("-", msg.kind, f"addr=0x{msg.addr:x}")

    def _projected_ts(self, msg: Message, n: int) -> int:
        """Upper bound on any timestamp this transaction could produce,
        given the request's epoch-clamped ``now`` ``n``."""
        m = self.dram.mnow
        if n > m:
            m = n
        line = self.cache._map.get(msg.addr)
        if line is not None:
            if line.exp > m:
                m = line.exp
            if line.ver > m:
                m = line.ver
        return m + self._lease_max2

    def wait_key(self) -> tuple:
        # Line presence and the MSHR entry set, the guard band (rollover,
        # freeze, ``mnow``), and ``_fills``: a blocked line is IV or IAV,
        # whose state, ``exp`` and ``ver`` change only at its fill.
        rollover = self.rollover
        return (self.cache.version, self.mshr.version, self._fills,
                rollover.epoch, rollover.in_progress, self.frozen,
                self.dram.mnow)

    def _retry_check(self, msg: Message):
        # The retry re-enters ``on_message`` in full whenever rollover could
        # be in play: the frozen/trigger checks and epoch clamping must be
        # re-evaluated at fire time. Away from the guard band that entry
        # sequence is side-effect-free (``maybe_trigger``'s no-trigger path
        # is a pure read, and the clamped timestamps cannot affect whether
        # the request blocks), so the check reads the blocking condition
        # only — the in-line guard-band test is ``_projected_ts`` split in
        # two: the bank's timestamps, read at each check, and the request's
        # ``now``, fixed when the check is built, which counts only while
        # the request's epoch is current (``rollover.epoch`` is a key
        # input) — and conservatively lets the ``can_allocate`` fail case
        # through to the full path.
        block = msg.addr
        cache_map = self.cache._map
        entries = self.mshr._entries
        capacity = self.mshr.capacity
        rollover = self.rollover
        dram = self.dram
        threshold = rollover.threshold
        lease_max2 = self._lease_max2
        now_in_band = (msg.now or 0) + lease_max2 >= threshold
        msg_epoch = msg.meta.get("epoch")
        atomic = msg.kind is MsgKind.ATOMIC
        valid = L2State.V
        iav = L2State.IAV

        def check():
            if self.frozen or rollover.in_progress:
                return None
            line = cache_map.get(block)
            m = dram.mnow
            if line is not None:
                if line.exp > m:
                    m = line.exp
                if line.ver > m:
                    m = line.ver
            if m + lease_max2 >= threshold or (
                    now_in_band and msg_epoch in (None, rollover.epoch)):
                return None
            if line is not None:
                blocked = (line.state is not valid if atomic
                           else line.state is iav)
            elif atomic:
                blocked = len(entries) >= capacity
            else:
                blocked = len(entries) >= capacity and block not in entries
            return self if blocked else None
        return check

    # ------------------------------------------------------------------
    # GETS
    # ------------------------------------------------------------------
    def _on_gets(self, msg: Message, m_now: int, m_exp: Optional[int]) -> None:
        if not msg.meta.get("_counted"):
            msg.meta["_counted"] = True
            self.stats.gets += 1
            if msg.meta.get("expired"):
                self.stats.gets_expired += 1
        block = msg.addr
        line = self.cache._map.get(block)

        if line is not None and line.state is L2State.V:
            self.stats.hits += 1
            self._grant_lease(msg, line, m_now, m_exp)
            return
        if line is not None and line.state is L2State.IAV:
            self._retry(msg)
            return
        if line is not None and line.state is L2State.IV:
            entry = self.mshr.allocate(block)
            entry.lastrd = max(entry.lastrd, m_now)
            entry.has_read = True
            entry.waiting_loads.append(msg)
            return
        # Miss: fetch from DRAM.
        if not (self.mshr.has_free() or block in self.mshr) \
                or not self.cache.can_allocate(block):
            self._retry(msg)
            return
        self.stats.misses += 1
        line = self.cache.insert(block, L2State.IV, self._on_evict)
        line.pinned = True
        entry = self.mshr.allocate(block)
        entry.lastrd = max(entry.lastrd, m_now)
        entry.has_read = True
        entry.waiting_loads.append(msg)
        self.fetch_from_dram(block, self._on_dram_data)

    def _grant_lease(self, msg: Message, line: CacheLine, m_now: int,
                     m_exp: Optional[int]) -> None:
        lease = self.predictor.lease_for(line)
        prev_exp = line.exp
        line.exp = max(line.exp, line.ver + lease, m_now + lease)
        line.touch()
        arrival = self.next_arrival()
        renewing = (self.renew_enabled and m_exp is not None
                    and m_exp > line.ver)
        if self.sanitizer is not None:
            self._emit(EV.L2_RENEW_GRANT if renewing else EV.L2_READ_GRANT,
                       msg.addr, ver=line.ver, exp=line.exp, m_now=m_now,
                       prev_exp=prev_exp, lease=lease,
                       peer=msg.src[1], epoch=self.rollover.epoch)
        if renewing:
            # The requester's copy is still current: extend, don't resend.
            self.stats.renew_grants += 1
            self.predictor.on_renew(line)
            self.send(msg.src, MsgKind.RENEW, msg.addr, exp=line.exp,
                      meta={"epoch": self.rollover.epoch, "arrival": arrival},
                      delay=self.cfg.l2_per_bank.hit_latency)
        else:
            self.send(msg.src, MsgKind.DATA, msg.addr, exp=line.exp,
                      ver=line.ver, value=line.value,
                      meta={"epoch": self.rollover.epoch, "arrival": arrival},
                      delay=self.cfg.l2_per_bank.hit_latency)

    # ------------------------------------------------------------------
    # WRITE
    # ------------------------------------------------------------------
    def _on_write(self, msg: Message, m_now: int) -> None:
        if not msg.meta.get("_counted"):
            msg.meta["_counted"] = True
            self.stats.writes += 1
        block = msg.addr
        line = self.cache._map.get(block)

        if line is not None and line.state is L2State.V:
            self.stats.hits += 1
            arrival = self.next_arrival()
            # Rules 2+3: past the writer's now, the last write, and every
            # outstanding lease — computed locally, acknowledged instantly.
            prev_ver, prev_exp = line.ver, line.exp
            line.ver = max(m_now, line.ver, post_lease(line.exp))
            line.value = msg.value
            line.dirty = True
            line.touch()
            self.predictor.on_write(line)
            if self.sanitizer is not None:
                self._emit(EV.L2_WRITE_APPLY, block, ver=line.ver,
                           prev_ver=prev_ver, prev_exp=prev_exp,
                           m_now=m_now, arrival=arrival,
                           epoch=self.rollover.epoch)
            self._send_ack(msg, line.ver, arrival)
            return
        if line is not None and line.state is L2State.IAV:
            self._retry(msg)
            return
        if line is not None and line.state is L2State.IV:
            self._merge_write(msg, m_now)
            return
        # Miss: allocate, ack against lastwr/mnow, fetch in the background.
        if not (self.mshr.has_free() or block in self.mshr) \
                or not self.cache.can_allocate(block):
            self._retry(msg)
            return
        self.stats.misses += 1
        line = self.cache.insert(block, L2State.IV, self._on_evict)
        line.pinned = True
        self.mshr.allocate(block)
        self._merge_write(msg, m_now)
        self.fetch_from_dram(block, self._on_dram_data)

    def _merge_write(self, msg: Message, m_now: int) -> None:
        """IV-state write: merge into the MSHR and ack without DRAM.

        The block's final version will be ``max(lastwr, mnow)``. For the
        *data*, the last write to arrive wins — the same resolution the V
        state applies — because the SC order of stores sharing a version is
        their physical arrival order at the L2 (paper footnote 2).
        """
        entry = self.mshr.allocate(msg.addr)
        entry.lastwr = max(entry.lastwr, m_now)
        entry.store_value = msg.value
        entry.has_write = True
        arrival = self.next_arrival()
        ver = max(entry.lastwr, self.dram.mnow)
        if self.sanitizer is not None:
            self._emit(EV.L2_WRITE_MERGE, msg.addr, ver=ver,
                       lastwr=entry.lastwr, mnow=self.dram.mnow,
                       arrival=arrival, epoch=self.rollover.epoch)
        self._send_ack(msg, ver, arrival)

    def _send_ack(self, msg: Message, ver: int, arrival: int) -> None:
        self.send(msg.src, MsgKind.ACK, msg.addr, ver=ver,
                  meta={"record": msg.meta.get("record"),
                        "warp": msg.meta.get("warp"),
                        "epoch": self.rollover.epoch, "arrival": arrival},
                  delay=self.cfg.l2_per_bank.hit_latency)

    # ------------------------------------------------------------------
    # ATOMIC
    # ------------------------------------------------------------------
    def _on_atomic(self, msg: Message, m_now: int) -> None:
        if not msg.meta.get("_counted"):
            msg.meta["_counted"] = True
            self.stats.atomics += 1
        block = msg.addr
        line = self.cache._map.get(block)

        if line is not None and line.state is L2State.V:
            self.stats.hits += 1
            arrival = self.next_arrival()
            prev_ver, prev_exp = line.ver, line.exp
            line.ver = max(m_now, line.ver, post_lease(line.exp))
            old_value = line.value
            line.value = msg.value
            line.dirty = True
            line.touch()
            self.predictor.on_write(line)
            if self.sanitizer is not None:
                self._emit(EV.L2_ATOMIC_APPLY, block, ver=line.ver,
                           prev_ver=prev_ver, prev_exp=prev_exp,
                           m_now=m_now, arrival=arrival,
                           epoch=self.rollover.epoch)
            self.send(msg.src, MsgKind.DATA, block, exp=line.exp,
                      ver=line.ver, value=old_value,
                      meta={"atomic": True, "record": msg.meta.get("record"),
                            "warp": msg.meta.get("warp"),
                            "epoch": self.rollover.epoch, "arrival": arrival},
                      delay=self.cfg.l2_per_bank.hit_latency)
            return
        if line is not None:  # IV or IAV: stall all further requests
            self._retry(msg)
            return
        # Miss in I: fetch and run the RMW when data arrives (IAV).
        if not self.mshr.has_free() or not self.cache.can_allocate(block):
            self._retry(msg)
            return
        self.stats.misses += 1
        line = self.cache.insert(block, L2State.IAV, self._on_evict)
        line.pinned = True
        entry = self.mshr.allocate(block)
        entry.lastwr = max(entry.lastwr, m_now)
        entry.has_write = True
        entry.meta["atomic_msg"] = msg
        self.fetch_from_dram(block, self._on_dram_data)

    # ------------------------------------------------------------------
    # DRAM fills
    # ------------------------------------------------------------------
    def _on_dram_data(self, block: int) -> None:
        if self.frozen:
            # Rollover in progress: complete the fill afterwards.
            self.engine.schedule(self.engine.now + RETRY_DELAY,
                                 lambda: self._on_dram_data(block))
            return
        self._fills += 1
        line = self.cache._map.get(block)
        entry = self.mshr.get(block)
        if line is None or entry is None:
            raise self.unhandled("I", "MEMDATA", f"orphan fill 0x{block:x}")
        mnow = self.dram.mnow

        atomic_msg = entry.meta.pop("atomic_msg", None)
        if atomic_msg is not None:  # IAV resolution
            line.exp = mnow
            line.ver = max(entry.lastwr, mnow)
            old_value = self.read_backing(block)
            line.value = atomic_msg.value
            line.dirty = True
            self.predictor.on_write(line)
            arrival = self.next_arrival()
            if self.sanitizer is not None:
                self._emit(EV.L2_FILL, block, ver=line.ver, exp=line.exp,
                           mnow=mnow, has_read=False, has_write=True,
                           lastwr=entry.lastwr, epoch=self.rollover.epoch)
                self._emit(EV.L2_ATOMIC_APPLY, block, ver=line.ver,
                           m_now=entry.lastwr, arrival=arrival,
                           epoch=self.rollover.epoch)
            self.send(atomic_msg.src, MsgKind.DATA, block, exp=line.ver,
                      ver=line.ver, value=old_value,
                      meta={"atomic": True,
                            "record": atomic_msg.meta.get("record"),
                            "warp": atomic_msg.meta.get("warp"),
                            "epoch": self.rollover.epoch, "arrival": arrival})
            line.state = L2State.V
            line.pinned = False
            entry.has_write = False
            self.mshr.release_if_empty(block)
            return

        # IV resolution: merge writes, compute lease for readers.
        line.exp = mnow
        line.ver = mnow
        if entry.has_write:
            line.ver = max(entry.lastwr, mnow)
            line.value = entry.store_value
            line.dirty = True
            self.predictor.on_write(line)
        else:
            line.value = self.read_backing(block)
        if entry.has_read:
            lease = self.predictor.lease_for(line)
            line.exp = max(line.ver + lease, entry.lastrd + lease)
        if self.sanitizer is not None:
            self._emit(EV.L2_FILL, block, ver=line.ver, exp=line.exp,
                       mnow=mnow, has_read=entry.has_read,
                       has_write=entry.has_write, lastrd=entry.lastrd,
                       lastwr=entry.lastwr, epoch=self.rollover.epoch)
        for req in entry.waiting_loads:
            arrival = self.next_arrival()
            self.send(req.src, MsgKind.DATA, block, exp=line.exp,
                      ver=line.ver, value=line.value,
                      meta={"epoch": self.rollover.epoch, "arrival": arrival})
        entry.waiting_loads.clear()
        entry.has_read = entry.has_write = False
        line.state = L2State.V
        line.pinned = False
        self.mshr.release_if_empty(block)

    # ------------------------------------------------------------------
    # Evictions and rollover
    # ------------------------------------------------------------------
    def _on_evict(self, line: CacheLine) -> None:
        self.stats.evictions += 1
        # post_lease (exp + 1, not the paper's exp): see the module docstring.
        self.dram.bump_mnow(max(post_lease(line.exp), line.ver))
        if self.sanitizer is not None:
            self._emit(EV.L2_EVICT, line.addr, ver=line.ver, exp=line.exp,
                       mnow_after=self.dram.mnow, epoch=self.rollover.epoch)
        if line.dirty:
            self.writeback_to_dram(line.addr, line.value)

    def freeze(self) -> None:
        self.frozen = True

    def unfreeze(self) -> None:
        self.frozen = False
        queued, self._frozen_queue = self._frozen_queue, []
        for msg in queued:
            self.on_message(msg)

    def rollover_reset(self) -> None:
        """Zero every timestamp this bank holds (queued message timestamps
        are neutralized by epoch clamping on dequeue)."""
        self.stats.rollovers += 1
        if self.sanitizer is not None:
            self._emit(EV.L2_ROLLOVER, 0, epoch=self.rollover.epoch)
        for line in self.cache.lines():
            line.ver = 0
            line.exp = 0
        for entry in self.mshr.entries():
            entry.lastrd = 0
            entry.lastwr = 0
