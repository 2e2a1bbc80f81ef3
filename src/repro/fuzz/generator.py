"""Random litmus-program generation for differential fuzzing.

A :class:`FuzzProgram` is a small multi-warp program over a pool of
*address slots* (each slot lowers to its own cache block). Programs are
symbolic — ops name slots, not byte addresses — so the shrinker can merge
addresses and the same program can be lowered against any block size.

:func:`generate_program` is the seeded generator: the same ``(seed,
knobs)`` pair always yields the identical program, byte for byte. Knobs
control the shape of the search space — how many warps race, how many
blocks they share, how write-heavy the mix is, how often fences appear,
and which sharing pattern (uniform / hot-block / mostly-private) picks the
slot of each access. These are the dimensions along which GPU coherence
protocols historically break: single-block contention stresses store
serialization, hot-block sharing stresses lease renewal, and fence density
stresses the WO drain paths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.types import MemOpKind
from repro.config import GPUConfig
from repro.gpu.trace import (
    TraceOp, WarpTrace, atomic_op, compute_op, fence_op, load_op, store_op,
)

#: Base byte address of slot 0; slots occupy consecutive blocks from here,
#: which also spreads them across L2 banks.
FUZZ_BASE_ADDR = 0x1000

#: Sharing patterns the generator understands.
SHARING_PATTERNS = ("uniform", "hot", "private")


@dataclass(frozen=True)
class FuzzOp:
    """One symbolic program op: a memory access to an address slot, a
    fence, or compute padding (timing noise to vary interleavings)."""

    kind: MemOpKind
    slot: Optional[int] = None
    cycles: int = 0

    def __post_init__(self):
        if self.kind.is_global_mem and (self.slot is None or self.slot < 0):
            raise ValueError(f"{self.kind} op requires a slot")
        if self.kind is MemOpKind.COMPUTE and self.cycles <= 0:
            raise ValueError("COMPUTE op requires positive cycles")

    @property
    def is_mem(self) -> bool:
        return self.kind.is_global_mem


@dataclass
class FuzzProgram:
    """A symbolic multi-warp program over ``n_addrs`` address slots."""

    n_addrs: int
    warps: Dict[Tuple[int, int], List[FuzzOp]] = field(default_factory=dict)
    name: str = "fuzz"
    seed: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def n_cores(self) -> int:
        return max((c for c, _ in self.warps), default=-1) + 1

    @property
    def warps_per_core(self) -> int:
        return max((w for _, w in self.warps), default=-1) + 1

    @property
    def n_ops(self) -> int:
        return sum(len(ops) for ops in self.warps.values())

    @property
    def n_mem_ops(self) -> int:
        return sum(1 for _, _, op in self.iter_ops() if op.is_mem)

    def iter_ops(self) -> Iterator[Tuple[Tuple[int, int], int, FuzzOp]]:
        """Yields (warp key, prog_index, op) over all warps in order."""
        for key in sorted(self.warps):
            for i, op in enumerate(self.warps[key]):
                yield key, i, op

    def used_slots(self) -> List[int]:
        return sorted({op.slot for _, _, op in self.iter_ops() if op.is_mem})

    # ------------------------------------------------------------------
    # Lowering to / from concrete warp traces
    # ------------------------------------------------------------------
    def addr_of_slot(self, slot: int, block_bytes: int = 128) -> int:
        return FUZZ_BASE_ADDR + slot * block_bytes

    def _lower_op(self, op: FuzzOp, block_bytes: int) -> TraceOp:
        if op.kind is MemOpKind.LOAD:
            return load_op(self.addr_of_slot(op.slot, block_bytes))
        if op.kind is MemOpKind.STORE:
            return store_op(self.addr_of_slot(op.slot, block_bytes))
        if op.kind is MemOpKind.ATOMIC:
            return atomic_op(self.addr_of_slot(op.slot, block_bytes))
        if op.kind is MemOpKind.FENCE:
            return fence_op()
        if op.kind is MemOpKind.COMPUTE:
            return compute_op(op.cycles)
        raise ValueError(f"fuzz programs cannot contain {op.kind}")

    def to_traces(self, cfg: GPUConfig) -> List[List[WarpTrace]]:
        """Lower to a dense trace grid shaped for ``cfg``. Ops map 1:1 to
        trace slots, so a :class:`MemOpRecord`'s ``prog_index`` equals the
        op's index in its warp's op list."""
        if self.n_cores > cfg.n_cores or self.warps_per_core > cfg.warps_per_core:
            raise ValueError(
                f"program needs {self.n_cores}x{self.warps_per_core} "
                f"(cores x warps), config has "
                f"{cfg.n_cores}x{cfg.warps_per_core}")
        bb = cfg.l1.block_bytes
        traces = [[WarpTrace(c, w) for w in range(cfg.warps_per_core)]
                  for c in range(cfg.n_cores)]
        for (core, warp), ops in self.warps.items():
            traces[core][warp].extend(self._lower_op(op, bb) for op in ops)
        return traces

    @staticmethod
    def from_traces(traces: List[List[WarpTrace]],
                    block_bytes: int = 128,
                    name: str = "replay") -> "FuzzProgram":
        """Reconstruct a symbolic program from lowered traces (slots are
        assigned to distinct blocks in ascending address order)."""
        blocks = sorted({b for row in traces for t in row
                         for b in t.mem_blocks(block_bytes)})
        slot_of = {b: i for i, b in enumerate(blocks)}
        warps: Dict[Tuple[int, int], List[FuzzOp]] = {}
        for row in traces:
            for t in row:
                if not t.ops:
                    continue
                ops: List[FuzzOp] = []
                for op in t.ops:
                    if op.kind.is_global_mem:
                        block = (op.addr // block_bytes) * block_bytes
                        ops.append(FuzzOp(op.kind, slot=slot_of[block]))
                    elif op.kind is MemOpKind.FENCE:
                        ops.append(FuzzOp(MemOpKind.FENCE))
                    elif op.kind is MemOpKind.COMPUTE:
                        ops.append(FuzzOp(MemOpKind.COMPUTE,
                                          cycles=op.cycles))
                    else:
                        raise ValueError(
                            f"fuzz programs cannot contain {op.kind}")
                warps[(t.core_id, t.warp_id)] = ops
        return FuzzProgram(n_addrs=max(len(blocks), 1), warps=warps,
                           name=name)

    # ------------------------------------------------------------------
    def normalized(self) -> "FuzzProgram":
        """Copy with empty warps dropped, warp ids repacked densely, and
        slots renumbered to 0..k-1 in first-use order (the canonical form
        the shrinker converges to)."""
        used = self.used_slots()
        slot_map = {s: i for i, s in enumerate(used)}
        keys = [k for k in sorted(self.warps) if self.warps[k]]
        core_map = {c: i for i, c in enumerate(sorted({c for c, _ in keys}))}
        warps: Dict[Tuple[int, int], List[FuzzOp]] = {}
        next_warp: Dict[int, int] = {}
        for core, warp in keys:
            nc = core_map[core]
            nw = next_warp.get(nc, 0)
            next_warp[nc] = nw + 1
            warps[(nc, nw)] = [
                replace(op, slot=slot_map[op.slot]) if op.is_mem else op
                for op in self.warps[(core, warp)]
            ]
        return FuzzProgram(n_addrs=max(len(used), 1), warps=warps,
                           name=self.name, seed=self.seed)

    def staggered(self, stagger: int, fenced: bool = False
                  ) -> "FuzzProgram":
        """Copy whose warps on core ``c > 0`` first compute for ``stagger *
        c`` cycles (varying the physical interleaving) and, with
        ``fenced``, put a FENCE after every memory op (the fully fenced
        variant a weakly ordered program needs to be SC)."""
        warps: Dict[Tuple[int, int], List[FuzzOp]] = {}
        for (core, warp), ops in self.warps.items():
            out = ([FuzzOp(MemOpKind.COMPUTE, cycles=stagger * core)]
                   if stagger and core else [])
            for op in ops:
                out.append(op)
                if fenced and op.is_mem:
                    out.append(FuzzOp(MemOpKind.FENCE))
            warps[(core, warp)] = out
        return FuzzProgram(n_addrs=self.n_addrs, warps=warps,
                           name=self.name, seed=self.seed)

    def pretty(self) -> str:
        """Human-readable listing (one column per warp)."""
        keys = sorted(self.warps)
        cols = []
        for key in keys:
            rows = [f"c{key[0]}w{key[1]}"]
            for op in self.warps[key]:
                if op.is_mem:
                    rows.append(f"{op.kind.value} a{op.slot}")
                elif op.kind is MemOpKind.COMPUTE:
                    rows.append(f"C {op.cycles}")
                else:
                    rows.append(op.kind.value)
            cols.append(rows)
        height = max((len(c) for c in cols), default=0)
        width = [max(len(r) for r in c) for c in cols]
        lines = []
        for i in range(height):
            cells = [(c[i] if i < len(c) else "").ljust(w)
                     for c, w in zip(cols, width)]
            lines.append(" | ".join(cells).rstrip())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Knobs + generator
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FuzzKnobs:
    """Shape of the random programs a campaign draws."""

    n_cores: int = 2
    warps_per_core: int = 1
    ops_per_warp: int = 6
    n_addrs: int = 2
    #: Op mix: P(store) and P(atomic); loads take the rest.
    p_store: float = 0.35
    p_atomic: float = 0.05
    #: Probability of a FENCE after each memory op (0 = never, 1 = always).
    fence_density: float = 0.0
    #: Slot-selection pattern: "uniform", "hot" (~60% of accesses hit slot
    #: 0), or "private" (each warp favors its own slot, racing on slot 0).
    sharing: str = "uniform"
    #: Probability of COMPUTE padding before each memory op, and its
    #: maximum duration (varies physical interleavings).
    p_compute: float = 0.0
    compute_max: int = 32

    def validate(self) -> None:
        if self.n_cores < 1 or self.warps_per_core < 1:
            raise ValueError("need at least one core and one warp")
        if self.ops_per_warp < 1:
            raise ValueError("ops_per_warp must be positive")
        if self.n_addrs < 1:
            raise ValueError("n_addrs must be positive")
        if not 0.0 <= self.p_store + self.p_atomic <= 1.0:
            raise ValueError("p_store + p_atomic must be within [0, 1]")
        if not 0.0 <= self.fence_density <= 1.0:
            raise ValueError("fence_density must be within [0, 1]")
        if self.sharing not in SHARING_PATTERNS:
            raise ValueError(f"sharing must be one of {SHARING_PATTERNS}")


def _pick_slot(rng: random.Random, knobs: FuzzKnobs, warp_index: int) -> int:
    n = knobs.n_addrs
    if n == 1:
        return 0
    if knobs.sharing == "hot" and rng.random() < 0.6:
        return 0
    if knobs.sharing == "private" and rng.random() < 0.5:
        return 1 + warp_index % (n - 1)
    return rng.randrange(n)


def _pick_kind(rng: random.Random, knobs: FuzzKnobs) -> MemOpKind:
    r = rng.random()
    if r < knobs.p_store:
        return MemOpKind.STORE
    if r < knobs.p_store + knobs.p_atomic:
        return MemOpKind.ATOMIC
    return MemOpKind.LOAD


def generate_program(seed: int, knobs: Optional[FuzzKnobs] = None,
                     name: Optional[str] = None) -> FuzzProgram:
    """Deterministically generate one program from ``seed`` and ``knobs``."""
    knobs = knobs or FuzzKnobs()
    knobs.validate()
    rng = random.Random(seed)
    warps: Dict[Tuple[int, int], List[FuzzOp]] = {}
    warp_index = 0
    for core in range(knobs.n_cores):
        for warp in range(knobs.warps_per_core):
            ops: List[FuzzOp] = []
            for _ in range(knobs.ops_per_warp):
                if knobs.p_compute and rng.random() < knobs.p_compute:
                    ops.append(FuzzOp(MemOpKind.COMPUTE,
                                      cycles=rng.randint(1, knobs.compute_max)))
                kind = _pick_kind(rng, knobs)
                slot = _pick_slot(rng, knobs, warp_index)
                ops.append(FuzzOp(kind, slot=slot))
                if knobs.fence_density and rng.random() < knobs.fence_density:
                    ops.append(FuzzOp(MemOpKind.FENCE))
            warps[(core, warp)] = ops
            warp_index += 1
    return FuzzProgram(n_addrs=knobs.n_addrs, warps=warps,
                       name=name or f"fuzz-{seed}", seed=seed)
