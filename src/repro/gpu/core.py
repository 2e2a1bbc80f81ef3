"""The SM (streaming multiprocessor) model.

Each core buffers many warps and issues at most one warp-instruction per
cycle, selected by loose round-robin (as in the paper's Table III). Warps
execute in order. Memory consistency is enforced at issue, by one gate per
model:

* under SC, a warp's next global memory op stalls until its previous one has
  completed — these are the paper's *SC stalls*, and the core attributes each
  stall to the kind of the blocking (preceding) operation, which is exactly
  the data behind the paper's Fig. 1a/1b and Fig. 8;
* under WO, several memory ops may be outstanding and only fences drain the
  warp (plus any protocol-specific visibility wait, e.g. TC-weak's GWCT).

The core is event-driven: it ticks every cycle only while at least one warp
can issue, then sleeps until a memory response, compute completion, or
barrier release wakes it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.common.types import MemOpKind
from repro.errors import SimulationError
from repro.gpu.trace import WarpTrace
from repro.gpu import warp as _warp_mod
from repro.gpu.warp import MemOpRecord, Warp
from repro.stats.histogram import Histogram
from repro.timing.engine import Engine

#: Park sentinel in the core's flat ``_busy`` column: far beyond any
#: reachable cycle. Set when a warp finishes its trace or parks at a
#: barrier, so the issue scan rejects it with a single list load + compare.
_NEVER = 1 << 62

#: Policy-park sentinel: the consistency gate blocked the warp on its own
#: outstanding access, with the stall interval already stamped —
#: rescanning it every cycle until the access completes would re-derive
#: the same "blocked" answer, so it parks and the next ``mem_op_done``
#: unparks it. Distinct from ``_NEVER`` so a completion never un-parks a
#: compute-busy, barrier-parked, or finished warp.
_BLOCKED = _NEVER + 1


class CoreStats:
    """Per-core counters aggregated by the harness."""

    def __init__(self) -> None:
        self.mem_ops = 0
        self.mem_ops_by_kind: Dict[MemOpKind, int] = {
            MemOpKind.LOAD: 0, MemOpKind.STORE: 0, MemOpKind.ATOMIC: 0,
        }
        self.latency_sum: Dict[MemOpKind, int] = {
            MemOpKind.LOAD: 0, MemOpKind.STORE: 0, MemOpKind.ATOMIC: 0,
        }
        #: Full latency distributions (log-bucketed) per op kind.
        self.latency_hist: Dict[MemOpKind, Histogram] = {
            MemOpKind.LOAD: Histogram(), MemOpKind.STORE: Histogram(),
            MemOpKind.ATOMIC: Histogram(),
        }
        self.sc_stalled_ops = 0
        self.sc_stall_cycles = 0
        #: Stall cycles attributed to the kind of the *blocking* op (Fig 1b).
        self.sc_stall_by_blocker: Dict[MemOpKind, int] = {
            MemOpKind.LOAD: 0, MemOpKind.STORE: 0, MemOpKind.ATOMIC: 0,
        }
        self.structural_stalls = 0
        self.fence_ops = 0
        self.fence_wait_cycles = 0
        self.issued_instructions = 0
        self.done_cycle: Optional[int] = None


class GPUCore:
    """One SM: warps + issue stage + barrier unit."""

    def __init__(self, core_id: int, engine: Engine, consistency: str,
                 wo_max_outstanding: int, traces: List[WarpTrace],
                 on_all_done: Optional[Callable[[int], None]] = None,
                 record_log: bool = False):
        self.core_id = core_id
        self.engine = engine
        #: SC: at most one outstanding global memory op per warp. WO: up
        #: to ``wo_max_outstanding``, and a pending fence blocks the next.
        self._sc = consistency == "sc"
        self._wo_max = wo_max_outstanding
        self.warps = [Warp(t) for t in traces]
        for idx, w in enumerate(self.warps):
            w.idx = idx
        #: Flat busy/park column, indexed by ``warp.idx``: the cycle until
        #: which the warp cannot issue (``_NEVER`` = parked). Owned by the
        #: core so the per-cycle scan rejects on a list load instead of a
        #: warp attribute chain.
        self._busy = [0 if w.n_ops else _NEVER for w in self.warps]
        #: Issue-gate column, indexed like ``_busy``: the gate the L1 gave
        #: the warp's last structurally stalled probe (see
        #: ``L1ControllerBase.would_stall``). While it is truthy the probe
        #: would still stall, so the scan skips it.
        self._gates: List[Any] = [None] * len(self.warps)
        for t in traces:
            t.validate()
        self.l1 = None  # attached by the simulator after construction
        self.stats = CoreStats()
        self.record_log = record_log
        self.op_log: List[MemOpRecord] = []
        self._on_all_done = on_all_done
        self._rr_next = 0
        self._tick_scheduled = False
        self._finished = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach_l1(self, l1) -> None:
        self.l1 = l1

    def start(self) -> None:
        if self.l1 is None:
            raise SimulationError(f"core {self.core_id} has no L1 attached")
        self._schedule_tick(self.engine.now)

    @property
    def finished(self) -> bool:
        return self._finished

    # ------------------------------------------------------------------
    # Tick / issue stage
    # ------------------------------------------------------------------
    def _schedule_tick(self, cycle: int) -> None:
        # The tick lands in the engine's cycle bucket — the shared per-cycle
        # dispatch list for every core active in that cycle. Each core's
        # registration keeps its own (cycle, seq) slot (see DESIGN.md
        # Appendix D for why a merged single-callback dispatcher would
        # change the firing order: completions scheduled between two cores'
        # registrations must fire between their ticks).
        if not self._tick_scheduled and not self._finished:
            self._tick_scheduled = True
            self.engine.schedule(cycle, self._tick)

    def wake(self) -> None:
        """Called by memory responses / compute completions / timers."""
        self._schedule_tick(self.engine.now)

    def _tick(self) -> None:
        """The per-cycle issue stage.

        This is the simulator's hottest function — it scans every warp
        once per active cycle — so the per-warp rejection tests and the
        consistency gate are inlined rather than delegated. The scan's
        observable behavior is pinned by the payload goldens: same issue
        choice, same round-robin update, same stall bookkeeping, cycle for
        cycle.
        """
        self._tick_scheduled = False
        if self._finished:
            return
        now = self.engine.now
        issued = False
        more_ready = False
        warps = self.warps
        n = len(warps)
        # ``rr`` mirrors the historical live read of ``self._rr_next``
        # inside the loop: once a warp issues, the scan base shifts, so the
        # remaining iterations index from the *updated* round-robin pointer.
        rr = self._rr_next
        sc = self._sc
        wo_max = self._wo_max
        stats = self.stats
        busy = self._busy
        gates = self._gates
        op_seq = _warp_mod._op_seq
        schedule = self.engine.schedule
        compute_kind = MemOpKind.COMPUTE
        barrier_kind = MemOpKind.BARRIER
        fence_kind = MemOpKind.FENCE
        for i in range(n):
            j = rr + i
            if j >= n:
                j -= n
            # The flat busy column is the scan's single park gate: finished,
            # barrier-parked, and policy-blocked warps hold a sentinel, so
            # the common rejection is one list load + compare without ever
            # touching the warp object. The pc/barrier tests remain as the
            # authoritative (and historically ordered) conditions; all are
            # pure reads, so evaluating busy first is unobservable.
            if busy[j] > now:
                continue
            # A shut issue gate: the warp's global memory op bounced off
            # its L1, and the state that bounced it still holds. The skip
            # is exact. The gated warp passed its consistency gate, which
            # cannot close before it issues: under SC it has no
            # outstanding op, and under WO it is below ``wo_max`` with no
            # fence pending (its op is not a fence, and completions only
            # lower the count). So the unskipped scan would have probed,
            # or found the slot taken, and the skip does the same
            # bookkeeping: one structural stall and one op id per probe.
            if gates[j]:
                if issued:
                    more_ready = True
                else:
                    next(op_seq)
                    stats.structural_stalls += 1
                continue
            warp = warps[j]
            pc = warp.pc
            if pc >= warp.n_ops or warp.at_barrier is not None:
                continue
            op = warp.ops[pc]
            kind = op.kind

            if kind is compute_kind:
                if issued:
                    more_ready = True
                    continue
                warp.pc = pc + 1
                until = now + op.cycles
                busy[j] = until
                stats.issued_instructions += 1
                schedule(until, self.wake)
                if warp.pc >= warp.n_ops:
                    busy[j] = _NEVER
                issued = True
                self._rr_next = rr = j + 1 if j + 1 < n else 0
                continue

            if kind is barrier_kind:
                if issued:
                    more_ready = True
                    continue
                warp.pc = pc + 1
                warp.at_barrier = op.barrier_id
                busy[j] = _NEVER  # parked until the barrier releases
                stats.issued_instructions += 1
                self._maybe_release_barrier(op.barrier_id)
                issued = True
                self._rr_next = rr = j + 1 if j + 1 < n else 0
                continue

            if kind is fence_kind:
                ready = self._consider_fence(warp, now, not issued)
                if ready == "issued":
                    issued = True
                    self._rr_next = rr = j + 1 if j + 1 < n else 0
                elif ready == "ready":
                    more_ready = True
                continue

            # Global memory op: gate through the consistency model. The
            # gate runs (and stamps the stall interval, attributed to the
            # oldest outstanding op) even when the issue slot is taken —
            # stall attribution must start the cycle the warp first became
            # blocked, not the cycle it got a slot. A warp blocked on its
            # own accesses then parks: the gate cannot reopen before one of
            # them completes, and ``mem_op_done`` unparks it that cycle, so
            # the re-scan it skips would have re-derived "blocked" every
            # time.
            outstanding = warp.outstanding
            if sc:
                if outstanding:
                    if warp.stall_start is None:
                        warp.stall_start = now
                        warp.stall_blocker = outstanding[0].kind
                    busy[j] = _BLOCKED
                    continue
            elif warp.fence_pending or len(outstanding) >= wo_max:
                if warp.stall_start is None:
                    warp.stall_start = now
                    warp.stall_blocker = (outstanding[0].kind
                                          if outstanding else None)
                if outstanding:
                    busy[j] = _BLOCKED
                continue
            if issued:
                more_ready = True
                continue
            if self._issue_mem(warp, now, op) == "issued":
                issued = True
                self._rr_next = rr = j + 1 if j + 1 < n else 0
        self._check_done(now)
        if self._finished:
            return
        if issued or more_ready:
            self._schedule_tick(now + 1)

    def _consider_fence(self, warp: Warp, now: int, can_issue: bool) -> str:
        if not warp.fence_pending:
            warp.fence_pending = True
            warp.stall_start = now
            self.stats.fence_ops += 1
        # Under SC a fence is a hardware no-op (the paper keeps fences in
        # traces only to stop compiler reordering; one outstanding op per
        # warp already orders the pipeline). Under WO it retires once the
        # warp's accesses drain.
        if not self._sc and warp.outstanding:
            return "blocked"
        block_until = self.l1.fence_block_until(warp)
        if block_until > now:
            # Protocol-imposed visibility wait (TC-weak's GWCT).
            self._busy[warp.idx] = block_until
            self.engine.schedule(block_until, self.wake)
            return "blocked"
        if not can_issue:
            return "ready"
        # Fence retires.
        if warp.stall_start is not None:
            self.stats.fence_wait_cycles += now - warp.stall_start
            warp.stall_start = None
        warp.fence_pending = False
        warp.pc += 1
        if warp.pc >= warp.n_ops:
            self._busy[warp.idx] = _NEVER
        self.stats.issued_instructions += 1
        self.l1.on_fence_retire(warp)
        return "issued"

    def _issue_mem(self, warp: Warp, now: int, op) -> str:
        gate = self.l1.would_stall(op.kind, op.addr)
        if gate:
            # Structural stall (MSHR full, set conflict, a same-block store
            # in flight), detected without building the record. The op-id
            # stream still advances one per attempt — write tokens embed
            # ``record.seq``, so elided attempts must consume the id the
            # constructor would have.
            next(_warp_mod._op_seq)
            self.stats.structural_stalls += 1
            if gate is not True:
                self._gates[warp.idx] = gate
            return "blocked"
        record = MemOpRecord(op.kind, op.addr, self.core_id, warp.warp_id,
                             warp.pc)
        record.issue_cycle = now
        if op.kind.is_write:
            record.value = (self.core_id, warp.warp_id, record.seq)
        self.l1.access(record, warp)
        # Issued: close out any SC-stall interval for this op.
        if warp.stall_start is not None:
            stall = now - warp.stall_start
            if stall > 0 and warp.stall_blocker is not None:
                record.sc_stalled = True
                record.sc_stall_cycles = stall
                record.sc_stall_blocker = warp.stall_blocker
                self.stats.sc_stalled_ops += 1
                self.stats.sc_stall_cycles += stall
                self.stats.sc_stall_by_blocker[warp.stall_blocker] += stall
            warp.stall_start = None
            warp.stall_blocker = None
        # The gate belonged to this op; a ``pending_stores`` gate may fill
        # again with later stores, and must not skip the next op.
        self._gates[warp.idx] = None
        warp.pc += 1
        if warp.pc >= warp.n_ops:
            self._busy[warp.idx] = _NEVER
        warp.outstanding.append(record)
        self.stats.issued_instructions += 1
        self.stats.mem_ops += 1
        self.stats.mem_ops_by_kind[op.kind] += 1
        return "issued"

    # ------------------------------------------------------------------
    # Completion paths
    # ------------------------------------------------------------------
    def mem_op_done(self, record: MemOpRecord, warp: Warp) -> None:
        """Called by the L1 controller when a memory op completes."""
        now = self.engine.now
        record.complete_cycle = now
        try:
            warp.outstanding.remove(record)
        except ValueError:
            raise SimulationError(f"completion for op not outstanding: {record!r}")
        kind = record.kind
        latency = now - record.issue_cycle
        stats = self.stats
        stats.latency_sum[kind] += latency
        stats.latency_hist[kind].add(latency)
        if self.record_log:
            self.op_log.append(record)
        # The completion is what re-opens the consistency gate, so it owns
        # the unpark. Only the policy-park sentinel is cleared —
        # compute-busy, barrier-parked, and finished warps stay put.
        if self._busy[warp.idx] == _BLOCKED:
            self._busy[warp.idx] = 0
        # wake(), inlined (hot: one call per completed memory op).
        if not self._tick_scheduled and not self._finished:
            self._tick_scheduled = True
            self.engine.schedule(now, self._tick)

    # ------------------------------------------------------------------
    # Barrier unit (workgroup == core in this model)
    # ------------------------------------------------------------------
    def _maybe_release_barrier(self, barrier_id: int) -> None:
        for w in self.warps:
            if w.done:
                continue
            if w.at_barrier != barrier_id:
                return  # someone has not arrived yet
        busy = self._busy
        for w in self.warps:
            w.at_barrier = None
            # Un-park released warps; finished ones keep the done sentinel.
            # (A warp at a barrier cannot be mid-compute, so its real
            # busy cycle was already <= now — 0 is equivalent to the scan.)
            if w.pc < w.n_ops:
                busy[w.idx] = 0

    # ------------------------------------------------------------------
    def _check_done(self, now: int) -> None:
        if self._finished:
            return
        for w in self.warps:
            if w.pc < w.n_ops or w.outstanding or w.fence_pending:
                return
        self._finished = True
        self.stats.done_cycle = now
        if self._on_all_done is not None:
            self._on_all_done(self.core_id)
