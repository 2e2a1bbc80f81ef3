"""Toy program interpreters: a fast SC reference executor and the
deliberately broken variants the fuzzer's own tests fuzz against.

These bypass the cycle-accurate simulator entirely: a seeded scheduler
interleaves the warps of a :class:`FuzzProgram` one op at a time against a
flat memory. With ``store_buffer_depth=0`` every op is globally visible
the moment it executes, so *any* schedule is sequentially consistent —
that is the reference executor used to validate the oracle (everything it
produces must be SC-explainable).

With ``store_buffer_depth > 0`` each warp gets a private FIFO store
buffer: stores become visible only when drained (after ``depth`` younger
ops, at a fence/atomic, or at warp end), while the warp's own loads
forward from the buffer. That is precisely TSO-style store buffering — the
classic way real hardware gives up SC — and produces store-buffering (SB)
outcomes a correct SC machine must never show. The differential fuzzer
must flag these runs, and the shrinker must reduce them to the minimal
4-op SB core; that closed loop is what certifies the fuzzer can actually
catch a broken protocol.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from repro.common.types import MemOpKind
from repro.fuzz.generator import FuzzProgram
from repro.fuzz.oracle import INIT, Observation, WarpKey


class ToyExecutor:
    """Interpreter-backed executor, pluggable into the differential
    runner next to the real protocol executors."""

    def __init__(self, name: str = "TOY-SC", sc: bool = True,
                 store_buffer_depth: int = 0, schedule_seed: int = 0,
                 schedule: str = "random"):
        self.name = name
        #: Whether this executor *claims* sequential consistency (and so
        #: must survive the oracle). The broken fixture claims SC and lies.
        self.sc = sc
        self.store_buffer_depth = store_buffer_depth
        self.schedule_seed = schedule_seed
        #: "random" (seeded per program) or "roundrobin" (one op per warp
        #: in turn — the most adversarial schedule for store buffering,
        #: and stable under shrinking since it ignores program shape).
        if schedule not in ("random", "roundrobin"):
            raise ValueError(f"unknown schedule {schedule!r}")
        self.schedule = schedule

    # ------------------------------------------------------------------
    def run_program(self, program: FuzzProgram) -> Observation:
        """Interpret ``program`` once under the configured schedule."""
        rng = random.Random(
            f"{self.schedule_seed}/{program.seed}/{program.n_ops}")
        keys = sorted(program.warps)
        pcs = {k: 0 for k in keys}
        buffers: Dict[WarpKey, List[Tuple[int, Any]]] = {k: [] for k in keys}
        mem: Dict[int, Any] = {}
        reads: Dict[WarpKey, List[Any]] = {k: [] for k in keys}

        def drain_one(key: WarpKey) -> None:
            slot, val = buffers[key].pop(0)
            mem[slot] = val

        def drain_all(key: WarpKey) -> None:
            while buffers[key]:
                drain_one(key)

        def read(key: WarpKey, slot: int) -> Any:
            for s, val in reversed(buffers[key]):  # own-buffer forwarding
                if s == slot:
                    return val
            return mem.get(slot, INIT)

        live = [k for k in keys if program.warps[k]]
        rr = 0
        while live:
            if self.schedule == "roundrobin":
                key = live[rr % len(live)]
                rr += 1
            else:
                key = live[rng.randrange(len(live))]
            i = pcs[key]
            op = program.warps[key][i]
            ident = (key[0], key[1], i)
            if op.kind is MemOpKind.LOAD:
                reads[key].append(read(key, op.slot))
            elif op.kind is MemOpKind.STORE:
                if self.store_buffer_depth > 0:
                    buffers[key].append((op.slot, ident))
                    if len(buffers[key]) > self.store_buffer_depth:
                        drain_one(key)
                else:
                    mem[op.slot] = ident
            elif op.kind is MemOpKind.ATOMIC:
                # Atomics drain the buffer and act on memory directly, so
                # the *only* defect of the broken variant is plain-store
                # buffering (as on real TSO hardware).
                drain_all(key)
                reads[key].append(mem.get(op.slot, INIT))
                mem[op.slot] = ident
            elif op.kind is MemOpKind.FENCE:
                drain_all(key)
            # COMPUTE: timing-only, no memory semantics.
            pcs[key] = i + 1
            if pcs[key] >= len(program.warps[key]):
                drain_all(key)
                live.remove(key)

        final = {slot: val for slot, val in mem.items() if val != INIT}
        return Observation(reads=reads, final=final)

    # ------------------------------------------------------------------
    def execute(self, program: FuzzProgram):
        """Differential-runner entry point (records-free execution)."""
        from repro.fuzz.differential import ExecutionOutcome
        try:
            obs = self.run_program(program)
        except Exception as exc:  # defensive: report, don't abort campaign
            return ExecutionOutcome(executor=self.name, sc=self.sc,
                                    error=f"{type(exc).__name__}: {exc}")
        return ExecutionOutcome(executor=self.name, sc=self.sc,
                                observation=obs)


def broken_store_buffer_executor(depth: int = 2,
                                 schedule_seed: int = 0,
                                 schedule: str = "roundrobin") -> ToyExecutor:
    """The known-bad fixture: claims SC, buffers stores like TSO."""
    return ToyExecutor(name=f"TOY-TSO{depth}", sc=True,
                       store_buffer_depth=depth,
                       schedule_seed=schedule_seed,
                       schedule=schedule)


def reference_sc_executor(schedule_seed: int = 0) -> ToyExecutor:
    """A correct (if timing-free) SC executor for oracle validation."""
    return ToyExecutor(name="TOY-SC", sc=True, store_buffer_depth=0,
                       schedule_seed=schedule_seed)
