"""Shared machinery for L1/L2 coherence controllers.

Every protocol implements two controller classes:

* an **L1 controller** per SM — owns the core-side tag array and MSHRs,
  receives memory ops from the core's issue stage, and exchanges messages
  with L2 banks over the crossbar;
* an **L2 controller** per bank — owns one bank of the shared write-back L2,
  its MSHRs, and the attached DRAM partition.

The base classes centralize message plumbing, hit-completion scheduling,
MSHR bookkeeping, and statistics; subclasses implement the protocol FSMs.
All L1s are write-through / write-no-allocate and all L2s are write-back,
matching commercial GPUs and the paper's setup.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.common.addresses import AddressMap
from repro.common.messages import Message
from repro.common.types import L1State, MemOpKind, MsgKind
from repro.config import GPUConfig
from repro.errors import ProtocolError
from repro.gpu.warp import MemOpRecord, Warp
from repro.mem.cache_array import CacheArray, CacheLine
from repro.mem.dram import DRAMPartition
from repro.mem.mshr import MSHRFile
from repro.noc.crossbar import Crossbar
from repro.timing.engine import Engine

#: Cycles between re-presentations of a request its L2 bank cannot take yet
#: (a line in a blocking transient state, a full MSHR file, a set with
#: every way pinned). Models the request sitting in the bank's input queue.
RETRY_DELAY = 8


class L1Stats:
    """Superset of per-L1 counters used across protocols."""

    def __init__(self) -> None:
        self.loads = 0
        self.load_hits = 0
        self.load_misses = 0
        #: Loads that found the block in V state but with an expired lease
        #: (RCC/TC) — the numerator of the paper's Fig. 6 (left).
        self.load_expired = 0
        self.stores = 0
        self.atomics = 0
        self.renews_received = 0
        self.invalidations_received = 0
        self.self_invalidations = 0
        self.evictions = 0
        self.flushes = 0


class L2Stats:
    """Per-L2-bank counters."""

    def __init__(self) -> None:
        self.gets = 0
        self.writes = 0
        self.atomics = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        #: GETS requests from expired L1 copies (Fig. 6 right denominator)
        self.gets_expired = 0
        #: ... of which the block was unchanged and a RENEW was granted.
        self.renew_grants = 0
        self.invalidations_sent = 0
        #: TCS only: cycles stores spent waiting for leases to expire.
        self.store_lease_wait_cycles = 0
        self.rollovers = 0


class L1ControllerBase:
    """Common L1 plumbing and the stall rule; subclasses implement
    ``_hit``, ``_load``, ``_store_or_atomic`` and ``on_message``."""

    def __init__(self, core_id: int, engine: Engine, cfg: GPUConfig,
                 noc: Crossbar, amap: AddressMap, invalid_state: Any):
        self.core_id = core_id
        self.engine = engine
        self.cfg = cfg
        self.noc = noc
        self.amap = amap
        self.endpoint = ("core", core_id)
        self.cache = CacheArray(cfg.l1, invalid_state)
        self.mshr = MSHRFile(cfg.l1.mshr_entries)
        self.stats = L1Stats()
        self.core = None  # GPUCore, attached by the simulator
        #: Runtime invariant checker; None (the default) costs one attribute
        #: test per emission site and nothing else.
        self.sanitizer = None
        noc.register(self.endpoint, self.on_message)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_core(self, core) -> None:
        self.core = core
        core.attach_l1(self)

    # ------------------------------------------------------------------
    # Protocol interface
    # ------------------------------------------------------------------
    #: Whether a store waits in the MSHR behind an earlier store to its
    #: block until that store's ack returns (MESI, SC-IDEAL, TC-strong).
    serializes_stores: bool

    def _hit(self, line: CacheLine) -> bool:
        """Whether a load may read ``line``, a resident tag entry, now.
        A pure read: the issue-stage probe asks it too."""
        raise NotImplementedError

    def would_stall(self, kind: MemOpKind, addr: int) -> Any:
        """The L1's one stall rule: may an op of ``kind`` to ``addr`` go
        into :meth:`access` now? A pure read, with three answers:

        * ``False``: it may;
        * ``True``: it may not (a load whose set has every way pinned);
        * a *gate*: it may not, for as long as the gate stays truthy. The
          core skips the re-probe of an op whose gate is still shut, so a
          gate must be the very state the verdict reads: the blocking
          entry's ``pending_stores`` (a store behind an earlier one to
          its block), or ``mshr.full_gate`` (a full file with no entry for
          the block).
        """
        shift = self.amap._block_shift
        block = (addr >> shift) << shift
        mshr = self.mshr
        entries = mshr._entries
        entry = entries.get(block)
        if kind is MemOpKind.LOAD:
            line = self.cache._map.get(block)
            if line is not None and self._hit(line):
                return False
            if entry is None and len(entries) >= mshr.capacity:
                return mshr.full_gate
            return line is None and not self.cache.can_allocate(block)
        if entry is not None:
            return self.serializes_stores and entry.pending_stores or False
        return len(entries) >= mshr.capacity and mshr.full_gate

    def access(self, record: MemOpRecord, warp: Warp) -> None:
        """Take one memory op whose :meth:`would_stall` probe was falsy."""
        if record.kind is MemOpKind.LOAD:
            self._load(record, warp)
        else:
            self._store_or_atomic(record, warp)

    def on_message(self, msg: Message) -> None:
        raise NotImplementedError

    def fence_block_until(self, warp: Warp) -> int:
        """Earliest cycle the warp's pending fence may retire (given its
        outstanding accesses have drained). Default: no extra wait."""
        return self.engine.now

    def on_fence_retire(self, warp: Warp) -> None:
        """Hook invoked by the core when a fence retires (RCC-WO joins its
        read/write logical views here). Default: nothing."""

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def block_of(self, addr: int) -> int:
        shift = self.amap._block_shift
        return (addr >> shift) << shift

    def l2_endpoint(self, addr: int) -> Tuple[str, int]:
        return ("l2", self.amap.bank_of(addr))

    def send_to_l2(self, kind: MsgKind, addr: int, *, now: Optional[int] = None,
                   exp: Optional[int] = None, value: Any = None,
                   meta: Optional[Dict[str, Any]] = None) -> Message:
        msg = Message(kind=kind, addr=self.block_of(addr), src=self.endpoint,
                      dst=self.l2_endpoint(addr), now=now, exp=exp,
                      value=value, meta=meta or {})
        self.noc.send(msg)
        return msg

    def complete(self, record: MemOpRecord, warp: Warp, delay: int = 0) -> None:
        """Hand a finished memory op back to the core after ``delay``.

        Zero-additional-latency completions (same-cycle L1 hits) take the
        inline path and never touch the event queue."""
        if delay <= 0:
            self.core.mem_op_done(record, warp)
        else:
            engine = self.engine
            engine.schedule(engine.now + delay,
                            lambda: self.core.mem_op_done(record, warp))

    def count_access(self, record: MemOpRecord) -> None:
        if record.kind is MemOpKind.LOAD:
            self.stats.loads += 1
        elif record.kind is MemOpKind.STORE:
            self.stats.stores += 1
        elif record.kind is MemOpKind.ATOMIC:
            self.stats.atomics += 1

    def _maybe_release(self, block: int) -> None:
        """Free ``block``'s MSHR entry once it tracks no request, and unpin
        its line; an IV placeholder left without requests is dropped."""
        entry = self.mshr.get(block)
        if entry is not None and entry.empty:
            self.mshr.release(block)
            line = self.cache._map.get(block)
            if line is not None:
                line.pinned = False
                if line.state is L1State.IV:
                    self.cache.remove(block)

    def _emit(self, kind: str, addr: int, **fields: Any) -> None:
        """Forward one protocol step to the attached sanitizer. Call sites
        guard with ``if self.sanitizer is not None`` so the disabled path
        never builds the kwargs dict."""
        self.sanitizer.emit(kind, "L1", self.core_id, self.engine.now,
                            addr, **fields)

    def unhandled(self, state: Any, event: Any, detail: str = "") -> ProtocolError:
        return ProtocolError(f"L1[{self.core_id}]", str(state), str(event), detail)


class L2ControllerBase:
    """Common L2-bank plumbing; subclasses implement ``on_message``."""

    def __init__(self, bank_id: int, engine: Engine, cfg: GPUConfig,
                 noc: Crossbar, amap: AddressMap, dram: DRAMPartition,
                 backing: Dict[int, Any], invalid_state: Any):
        self.bank_id = bank_id
        self.engine = engine
        self.cfg = cfg
        self.noc = noc
        self.amap = amap
        self.dram = dram
        #: Architectural memory contents (block -> data token); timing is
        #: modelled by :class:`DRAMPartition`, values live here.
        self.backing = backing
        self.endpoint = ("l2", bank_id)
        self.cache = CacheArray(cfg.l2_per_bank, invalid_state)
        self.mshr = MSHRFile(cfg.l2_per_bank.mshr_entries)
        self.stats = L2Stats()
        #: Monotonic per-bank arrival counter: the physical serialization
        #: order of writes at this bank (SC tie-break for equal versions).
        self._arrivals = 0
        #: Runtime invariant checker (see L1ControllerBase.sanitizer).
        self.sanitizer = None
        noc.register(self.endpoint, self.on_message)

    # ------------------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Retries
    # ------------------------------------------------------------------
    def wait_key(self) -> tuple:
        """Everything a retry check of this bank reads, as one value: while
        it is unchanged, no blocked request's verdict can change."""
        raise NotImplementedError

    def _retry_check(self, msg: Message) -> Callable[[], Any]:
        """A pure read of whether ``msg`` is still blocked: falsy when it
        may re-enter the handler (conservatively: the handler may block it
        again), ``self`` while it is blocked (see :meth:`Engine.poll`)."""
        raise NotImplementedError

    def _retry(self, msg: Message) -> None:
        """Re-present ``msg`` to ``on_message`` once its check lets it
        through. The (check, resume) pair is built once per message."""
        pair = msg.meta.get("_retry")
        if pair is None:
            pair = msg.meta["_retry"] = (self._retry_check(msg),
                                         lambda: self.on_message(msg))
        self.engine.poll(RETRY_DELAY, *pair)

    # ------------------------------------------------------------------
    def next_arrival(self) -> int:
        self._arrivals += 1
        return self._arrivals

    def send(self, dst: Any, kind: MsgKind, addr: int, *,
             now: Optional[int] = None, exp: Optional[int] = None,
             ver: Optional[int] = None, value: Any = None,
             meta: Optional[Dict[str, Any]] = None,
             delay: int = 0) -> Message:
        msg = Message(kind=kind, addr=addr, src=self.endpoint, dst=dst,
                      now=now, exp=exp, ver=ver, value=value,
                      meta=meta or {})
        if delay <= 0:
            self.noc.send(msg)
        else:
            self.engine.schedule(self.engine.now + delay,
                                 lambda: self.noc.send(msg))
        return msg

    def read_backing(self, addr: int) -> Any:
        """Architectural memory value (blocks start as ("init", addr))."""
        return self.backing.get(addr, ("init", addr))

    def fetch_from_dram(self, addr: int, then: Callable[[int], None]) -> None:
        """Timing-only DRAM read; ``then(addr)`` fires when data arrives."""
        self.dram.access(addr, is_write=False, token=addr,
                         done=lambda a: then(a))

    def writeback_to_dram(self, addr: int, value: Any) -> None:
        """Write-back: update architectural memory, account DRAM timing."""
        self.backing[addr] = value
        self.stats.writebacks += 1
        self.dram.access(addr, is_write=True, token=addr, done=lambda a: None)

    def _emit(self, kind: str, addr: int, **fields: Any) -> None:
        """Forward one protocol step to the attached sanitizer (see
        L1ControllerBase._emit)."""
        self.sanitizer.emit(kind, "L2", self.bank_id, self.engine.now,
                            addr, **fields)

    def unhandled(self, state: Any, event: Any, detail: str = "") -> ProtocolError:
        return ProtocolError(f"L2[{self.bank_id}]", str(state), str(event), detail)
