"""Warp state and in-flight memory-operation records."""

from __future__ import annotations

import itertools
from typing import Any, List, Optional

from repro.common.types import MemOpKind
from repro.gpu.trace import WarpTrace

_op_seq = itertools.count()


def reset_op_seq() -> None:
    """Restart the op-record id counter (one simulation at a time runs per
    process, and :class:`~repro.sim.gpusim.GPUSimulator` resets at build
    time). Run-local ids make every run — and its written data tokens —
    a pure function of its inputs, so replaying the same cell in another
    process or from the result cache is byte-identical."""
    global _op_seq
    _op_seq = itertools.count()


class MemOpRecord:
    """An in-flight (or completed) global memory operation.

    This is the object handed to the L1 controller, threaded through the
    memory system, and returned to the core on completion. It doubles as the
    execution-log record consumed by the SC witness checker.
    """

    __slots__ = ("kind", "addr", "core_id", "warp_id", "prog_index", "seq",
                 "issue_cycle", "complete_cycle", "value", "read_value",
                 "logical_ts", "order_key", "sc_stalled", "sc_stall_cycles",
                 "sc_stall_blocker")

    def __init__(self, kind: MemOpKind, addr: int, core_id: int, warp_id: int,
                 prog_index: int):
        self.kind = kind
        self.addr = addr
        self.core_id = core_id
        self.warp_id = warp_id
        self.prog_index = prog_index       # position in the warp's trace
        self.seq = next(_op_seq)           # global unique id
        self.issue_cycle: int = -1
        self.complete_cycle: int = -1
        #: For stores/atomics: the unique data token this op writes.
        self.value: Any = None
        #: For loads/atomics: the data token observed.
        self.read_value: Any = None
        #: Logical (RCC) or physical (MESI/TC) timestamp of the access, used
        #: by the consistency checker to build a witness order.
        self.logical_ts: int = 0
        #: Secondary tiebreak (physical L2 arrival order).
        self.order_key: int = 0
        # SC stall bookkeeping (filled in by the core's issue stage).
        self.sc_stalled: bool = False
        self.sc_stall_cycles: int = 0
        self.sc_stall_blocker: Optional[MemOpKind] = None

    @property
    def latency(self) -> int:
        return self.complete_cycle - self.issue_cycle

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<{self.kind.value} 0x{self.addr:x} c{self.core_id}w{self.warp_id}"
                f"#{self.prog_index}>")


class Warp:
    """Execution state of one warp: program counter plus blocking state."""

    __slots__ = ("core_id", "warp_id", "idx", "trace", "ops", "n_ops", "pc",
                 "outstanding", "at_barrier", "fence_pending",
                 "stall_start", "stall_blocker")

    def __init__(self, trace: WarpTrace):
        self.core_id = trace.core_id
        self.warp_id = trace.warp_id
        #: Position in the owning core's warp list, assigned by the core.
        #: Indexes the core's flat ``_busy`` park/busy column (the
        #: ``busy_until`` field lives there, not on the warp — the issue
        #: scan rejects parked warps on one list load without touching
        #: the warp object).
        self.idx = 0
        self.trace = trace
        #: Direct references for the issue stage's per-cycle scan, which is
        #: hot enough that even the ``trace.ops`` attribute hop and the
        #: ``done`` property call showed up in profiles.
        self.ops = trace.ops
        self.n_ops = len(trace.ops)
        self.pc = 0
        #: In-flight global memory ops, oldest first.
        self.outstanding: List[MemOpRecord] = []
        self.at_barrier: Optional[int] = None
        self.fence_pending = False
        # SC-stall bookkeeping for the op currently blocked at issue.
        self.stall_start: Optional[int] = None
        self.stall_blocker: Optional[MemOpKind] = None

    @property
    def done(self) -> bool:
        return self.pc >= self.n_ops

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Warp c{self.core_id}w{self.warp_id} pc={self.pc}/"
                f"{len(self.trace.ops)} out={len(self.outstanding)}>")
