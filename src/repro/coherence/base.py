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
from repro.common.types import AccessOutcome, MemOpKind, MsgKind
from repro.config import GPUConfig
from repro.errors import ProtocolError
from repro.gpu.warp import MemOpRecord, Warp
from repro.mem.cache_array import CacheArray
from repro.mem.dram import DRAMPartition
from repro.mem.mshr import MSHRFile
from repro.noc.crossbar import Crossbar
from repro.timing.engine import Engine


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
    """Common L1 plumbing; subclasses implement ``access``/``on_message``."""

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
    # Protocol interface (abstract)
    # ------------------------------------------------------------------
    def access(self, record: MemOpRecord, warp: Warp) -> AccessOutcome:
        raise NotImplementedError

    def would_stall(self, kind: MemOpKind, addr: int) -> bool:
        """Side-effect-free probe of ``access``'s STALL exits.

        The core consults this before building the (surprisingly expensive)
        :class:`MemOpRecord` for an attempt that would only bounce off a
        full MSHR. Contract: True must imply that ``access`` would return
        STALL right now; False may be wrong (the core still handles a STALL
        from ``access`` itself), so overrides can be conservative — but
        never optimistic.
        """
        return False

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
