"""Workload base classes and trace-building helpers."""

from __future__ import annotations

import random
from typing import List

from repro.common.types import MemOpKind
from repro.config import GPUConfig
from repro.gpu.trace import TraceOp, WarpTrace

BLOCK = 128  # bytes per cache block; all generators address whole blocks

# Bound once: a ``MemOpKind.X`` lookup costs about half as much as
# building the op itself, and the builder methods run once per op.
_LOAD = MemOpKind.LOAD
_STORE = MemOpKind.STORE
_ATOMIC = MemOpKind.ATOMIC
_COMPUTE = MemOpKind.COMPUTE
_FENCE = MemOpKind.FENCE
_BARRIER = MemOpKind.BARRIER


class TraceBuilder:
    """Convenience wrapper for emitting ops into one warp's trace.

    Each method builds its :class:`TraceOp` directly (the op the matching
    ``*_op`` helper of :mod:`repro.gpu.trace` would return) and appends it
    through the op list's bound ``append``: every cell generates hundreds
    of thousands of ops, and an extra frame per op is a measurable share
    of set-up time.
    """

    __slots__ = ("trace", "_emit")

    def __init__(self, core_id: int, warp_id: int):
        self.trace = WarpTrace(core_id, warp_id)
        self._emit = self.trace.ops.append

    def load(self, block_index: int) -> None:
        self._emit(TraceOp(_LOAD, block_index * BLOCK))

    def store(self, block_index: int) -> None:
        self._emit(TraceOp(_STORE, block_index * BLOCK))

    def atomic(self, block_index: int) -> None:
        self._emit(TraceOp(_ATOMIC, block_index * BLOCK))

    def compute(self, cycles: int) -> None:
        if cycles > 0:
            self._emit(TraceOp(_COMPUTE, None, cycles))

    def fence(self) -> None:
        self._emit(TraceOp(_FENCE))

    def barrier(self, barrier_id: int) -> None:
        self._emit(TraceOp(_BARRIER, barrier_id=barrier_id))


class Workload:
    """A named, categorized benchmark model.

    Subclasses set ``name``, ``category`` ("inter" or "intra"),
    ``description``, and implement :meth:`build_warp`, emitting the op
    stream for one warp given a seeded RNG. ``intensity`` scales iteration
    counts so tests can run tiny instances and benchmarks realistic ones.
    """

    name = "base"
    category = "inter"
    description = ""
    #: Baseline iterations per warp at intensity 1.0.
    base_iterations = 40

    def __init__(self, intensity: float = 1.0, seed: int = 1234):
        self.intensity = intensity
        self.seed = seed

    def iterations(self) -> int:
        return max(2, int(self.base_iterations * self.intensity))

    # ------------------------------------------------------------------
    def build_warp(self, b: TraceBuilder, cfg: GPUConfig,
                   rng: random.Random) -> None:
        raise NotImplementedError

    def generate(self, cfg: GPUConfig) -> List[List[WarpTrace]]:
        """Produce per-core, per-warp traces for ``cfg``'s machine shape."""
        out: List[List[WarpTrace]] = []
        name_tag = sum(ord(ch) * (i + 1) for i, ch in enumerate(self.name))
        for core in range(cfg.n_cores):
            core_traces = []
            for warp in range(cfg.warps_per_core):
                rng = random.Random(
                    self.seed * 1_000_003 + name_tag * 7919
                    + core * 911 + warp * 31
                )
                b = TraceBuilder(core, warp)
                self.build_warp(b, cfg, rng)
                core_traces.append(b.trace)
            out.append(core_traces)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Workload {self.name} ({self.category})>"
