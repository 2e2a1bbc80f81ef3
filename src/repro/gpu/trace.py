"""Workload traces: the instruction stream each warp executes.

Traces are *post-coalescing*: one LOAD/STORE/ATOMIC op represents one memory
transaction issued by a warp's load-store unit (the unit of coherence
traffic). COMPUTE ops model the ALU work between memory instructions as a
cycle count; BARRIER ops synchronize all warps within one core (a workgroup
in our model maps to one SM); FENCE ops order memory under weak consistency
(under SC they are no-ops in hardware, exactly as the paper treats them, but
are kept in traces).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set

from repro.common.types import MemOpKind
from repro.errors import TraceError

_MEM_KINDS = frozenset(k for k in MemOpKind if k.is_global_mem)
_COMPUTE = MemOpKind.COMPUTE


class TraceOp:
    """One trace instruction.

    ``addr`` is a byte address for memory ops, ``cycles`` the duration of a
    COMPUTE op, ``barrier_id`` distinguishes successive barriers.

    A slotted record compared and hashed by value. It is immutable by
    contract, not by enforcement: nothing may assign to an op after
    construction. A guarding ``__setattr__`` would more than double the
    cost of building one, and every cell builds hundreds of thousands.
    """

    __slots__ = ("kind", "addr", "cycles", "barrier_id")

    def __init__(self, kind: MemOpKind, addr: Optional[int] = None,
                 cycles: int = 0, barrier_id: int = 0):
        if addr is None and kind in _MEM_KINDS:
            raise TraceError(f"{kind} op requires an address")
        if kind is _COMPUTE and cycles <= 0:
            raise TraceError("COMPUTE op requires positive cycle count")
        if addr is not None and addr < 0:
            raise TraceError(f"negative address {addr}")
        self.kind = kind
        self.addr = addr
        self.cycles = cycles
        self.barrier_id = barrier_id

    def _fields(self) -> tuple:
        return (self.kind, self.addr, self.cycles, self.barrier_id)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        # Rebuild through __init__: slotted objects without a __dict__
        # cannot be pickled at protocols 0 and 1 otherwise.
        return (self.__class__, self._fields())

    def __repr__(self) -> str:
        return (f"TraceOp(kind={self.kind!r}, addr={self.addr!r}, "
                f"cycles={self.cycles!r}, barrier_id={self.barrier_id!r})")


def load_op(addr: int) -> TraceOp:
    return TraceOp(MemOpKind.LOAD, addr=addr)


def store_op(addr: int) -> TraceOp:
    return TraceOp(MemOpKind.STORE, addr=addr)


def atomic_op(addr: int) -> TraceOp:
    return TraceOp(MemOpKind.ATOMIC, addr=addr)


def compute_op(cycles: int) -> TraceOp:
    return TraceOp(MemOpKind.COMPUTE, cycles=cycles)


def fence_op() -> TraceOp:
    return TraceOp(MemOpKind.FENCE)


def barrier_op(barrier_id: int = 0) -> TraceOp:
    return TraceOp(MemOpKind.BARRIER, barrier_id=barrier_id)


@dataclass
class WarpTrace:
    """The full instruction stream for one warp."""

    core_id: int
    warp_id: int
    ops: List[TraceOp] = field(default_factory=list)

    def append(self, op: TraceOp) -> None:
        self.ops.append(op)

    def extend(self, ops: Iterable[TraceOp]) -> None:
        self.ops.extend(ops)

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def n_mem_ops(self) -> int:
        return sum(1 for op in self.ops if op.kind.is_global_mem)

    def mem_blocks(self, block_bytes: int) -> Set[int]:
        """Block base addresses this warp's global memory ops touch."""
        return {(op.addr // block_bytes) * block_bytes
                for op in self.ops if op.kind.is_global_mem}

    def validate(self) -> None:
        """Sanity-check barrier matching: every warp in a core must reach
        barriers in the same order; we check ids are non-decreasing."""
        last = -1
        for op in self.ops:
            if op.kind is MemOpKind.BARRIER:
                if op.barrier_id < last:
                    raise TraceError(
                        f"barrier ids must be non-decreasing in warp "
                        f"{self.core_id}.{self.warp_id}"
                    )
                last = op.barrier_id
