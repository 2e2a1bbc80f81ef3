"""Integration tests for the SM core's issue stage: SC stalls, barriers,
fences, round-robin fairness, and stall attribution."""

import pytest

from repro.common.types import MemOpKind
from repro.gpu.trace import (
    atomic_op, barrier_op, compute_op, fence_op, load_op, store_op,
)
from tests.conftest import run_program


BLOCK = 128


def test_single_warp_executes_all_ops(tiny_cfg):
    r = run_program(tiny_cfg, "RCC", {
        (0, 0): [load_op(0), compute_op(5), store_op(BLOCK), load_op(0)],
    })
    assert r.mem_ops == 3
    assert r.cycles > 0


def test_sc_limits_one_outstanding_per_warp(tiny_cfg):
    """Back-to-back loads from one warp must serialize under SC."""
    one = run_program(tiny_cfg, "RCC", {(0, 0): [load_op(0)]})
    two = run_program(tiny_cfg, "RCC",
                      {(0, 0): [load_op(0), load_op(10 * BLOCK)]})
    # The second (independent) load could overlap under WO; under SC the
    # runtime roughly doubles.
    assert two.cycles > one.cycles * 1.6


def test_wo_overlaps_independent_loads(tiny_cfg):
    ops = [load_op(i * 7 * BLOCK) for i in range(4)]
    sc = run_program(tiny_cfg, "RCC", {(0, 0): list(ops)})
    wo = run_program(tiny_cfg, "RCC-WO", {(0, 0): list(ops)})
    assert wo.cycles < sc.cycles
    # The WO gate also blocks at ``wo_max_outstanding``.
    capped = run_program(tiny_cfg.replace(wo_max_outstanding=1), "RCC-WO",
                         {(0, 0): list(ops)})
    assert capped.cycles > wo.cycles


def test_sc_stall_attributed_to_store(tiny_cfg):
    r = run_program(tiny_cfg, "RCC", {
        (0, 0): [store_op(0), load_op(5 * BLOCK)],
    })
    assert r.sc_stalled_ops == 1
    assert r.sc_stall_by_blocker[MemOpKind.STORE] > 0
    assert r.sc_stall_by_blocker[MemOpKind.LOAD] == 0


def test_sc_stall_attributed_to_load(tiny_cfg):
    r = run_program(tiny_cfg, "RCC", {
        (0, 0): [load_op(0), load_op(5 * BLOCK)],
    })
    assert r.sc_stall_by_blocker[MemOpKind.LOAD] > 0
    assert r.sc_stall_by_blocker[MemOpKind.STORE] == 0


def test_compute_between_mem_ops_reduces_stall(tiny_cfg):
    stall = run_program(tiny_cfg, "RCC", {
        (0, 0): [store_op(0), load_op(5 * BLOCK)],
    })
    padded = run_program(tiny_cfg, "RCC", {
        (0, 0): [store_op(0), compute_op(2000), load_op(5 * BLOCK)],
    })
    assert padded.sc_stall_cycles < stall.sc_stall_cycles


def test_barrier_synchronizes_warps(tiny_cfg):
    """A fast warp must wait at the barrier for a slow sibling."""
    r = run_program(tiny_cfg, "RCC", {
        (0, 0): [barrier_op(0), store_op(0)],
        (0, 1): [compute_op(3000), barrier_op(0), store_op(BLOCK)],
    }, record_ops=True)
    stores = [op for op in r.op_logs if op.kind is MemOpKind.STORE]
    assert all(op.issue_cycle >= 3000 for op in stores)


def test_barrier_with_done_warp_does_not_deadlock(tiny_cfg):
    # Warp 1 finishes before warp 0 reaches the barrier.
    r = run_program(tiny_cfg, "RCC", {
        (0, 0): [compute_op(500), barrier_op(0), store_op(0)],
        (0, 1): [load_op(BLOCK)],
    })
    assert r.mem_ops == 2


def test_fence_noop_under_sc(tiny_cfg):
    plain = run_program(tiny_cfg, "RCC", {
        (0, 0): [store_op(0), load_op(BLOCK)],
    })
    fenced = run_program(tiny_cfg, "RCC", {
        (0, 0): [store_op(0), fence_op(), load_op(BLOCK)],
    })
    # Under SC the fence retires immediately once the store drains; the
    # run should not be meaningfully longer.
    assert fenced.cycles <= plain.cycles + 10


def test_fence_drains_outstanding_under_wo(tiny_cfg):
    r = run_program(tiny_cfg, "TCW", {
        (0, 0): [store_op(0), store_op(5 * BLOCK), fence_op(),
                 load_op(9 * BLOCK)],
    }, record_ops=True)
    load = [op for op in r.op_logs if op.kind is MemOpKind.LOAD][0]
    stores = [op for op in r.op_logs if op.kind is MemOpKind.STORE]
    assert load.issue_cycle >= max(s.complete_cycle for s in stores)
    assert r.fence_ops == 1


def test_atomic_returns_previous_value(tiny_cfg):
    r = run_program(tiny_cfg, "RCC", {
        (0, 0): [store_op(0), atomic_op(0)],
    }, record_ops=True)
    at = [op for op in r.op_logs if op.kind is MemOpKind.ATOMIC][0]
    st = [op for op in r.op_logs if op.kind is MemOpKind.STORE][0]
    assert at.read_value == st.value


def test_round_robin_serves_all_warps(small_cfg):
    ops = [load_op(i * BLOCK) for i in range(3)]
    r = run_program(small_cfg, "RCC", {
        (c, w): list(ops)
        for c in range(small_cfg.n_cores)
        for w in range(small_cfg.warps_per_core)
    })
    assert r.mem_ops == 3 * small_cfg.n_cores * small_cfg.warps_per_core


def test_latency_accounting_by_kind(tiny_cfg):
    r = run_program(tiny_cfg, "RCC", {
        (0, 0): [load_op(0), store_op(BLOCK)],
    })
    assert r.avg_load_latency > 0
    assert r.avg_store_latency > 0
    assert r.mem_ops_by_kind[MemOpKind.LOAD] == 1
    assert r.mem_ops_by_kind[MemOpKind.STORE] == 1
