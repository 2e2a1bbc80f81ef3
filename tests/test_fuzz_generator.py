"""Tests for the fuzz program generator: determinism, knob coverage, and
lowering invariants (FuzzOps must map 1:1 onto trace ops so prog_index
round-trips through the simulator's MemOpRecords)."""

import pytest

from repro.common.types import MemOpKind
from repro.config import GPUConfig
from repro.fuzz.generator import (
    FUZZ_BASE_ADDR, FuzzKnobs, FuzzOp, FuzzProgram, generate_program,
)

L = lambda s: FuzzOp(MemOpKind.LOAD, slot=s)
S = lambda s: FuzzOp(MemOpKind.STORE, slot=s)
F = lambda: FuzzOp(MemOpKind.FENCE)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

def test_same_seed_same_program():
    knobs = FuzzKnobs(n_cores=3, warps_per_core=2, ops_per_warp=8,
                      n_addrs=3, p_store=0.4, p_atomic=0.1,
                      fence_density=0.3, p_compute=0.2)
    a = generate_program(42, knobs)
    b = generate_program(42, knobs)
    assert a.warps == b.warps
    assert a.n_addrs == b.n_addrs
    assert a.seed == b.seed == 42


def test_different_seeds_differ():
    knobs = FuzzKnobs(ops_per_warp=8)
    programs = [generate_program(s, knobs).warps for s in range(8)]
    assert any(p != programs[0] for p in programs[1:])


# ----------------------------------------------------------------------
# Knob coverage
# ----------------------------------------------------------------------

def _kinds(program):
    return [op.kind for _, _, op in program.iter_ops()]


def test_fence_density_zero_means_no_fences():
    p = generate_program(1, FuzzKnobs(fence_density=0.0, ops_per_warp=10))
    assert MemOpKind.FENCE not in _kinds(p)


def test_fence_density_one_fences_every_mem_op():
    p = generate_program(1, FuzzKnobs(fence_density=1.0, ops_per_warp=10))
    kinds = _kinds(p)
    assert kinds.count(MemOpKind.FENCE) == p.n_mem_ops
    # ... and each mem op is immediately followed by its fence.
    for ops in p.warps.values():
        for i, op in enumerate(ops):
            if op.is_mem:
                assert ops[i + 1].kind is MemOpKind.FENCE


def test_single_address_contention():
    p = generate_program(7, FuzzKnobs(n_addrs=1, n_cores=4,
                                      ops_per_warp=6))
    assert all(op.slot == 0 for _, _, op in p.iter_ops() if op.is_mem)
    assert p.used_slots() == [0]


def test_ops_per_warp_counts_memory_ops():
    knobs = FuzzKnobs(ops_per_warp=5, fence_density=0.5, p_compute=0.5)
    p = generate_program(3, knobs)
    for ops in p.warps.values():
        assert sum(1 for op in ops if op.is_mem) == 5


def test_sharing_patterns_and_op_mix():
    hot = generate_program(11, FuzzKnobs(n_addrs=4, sharing="hot",
                                         ops_per_warp=64))
    slots = [op.slot for _, _, op in hot.iter_ops() if op.is_mem]
    assert slots.count(0) > len(slots) // 3  # slot 0 runs hot
    stores = generate_program(11, FuzzKnobs(p_store=1.0, p_atomic=0.0))
    assert all(k is MemOpKind.STORE for k in _kinds(stores))


def test_knob_validation():
    with pytest.raises(ValueError):
        FuzzKnobs(p_store=0.9, p_atomic=0.3).validate()
    with pytest.raises(ValueError):
        FuzzKnobs(fence_density=1.5).validate()
    with pytest.raises(ValueError):
        FuzzKnobs(sharing="broadcast").validate()
    with pytest.raises(ValueError):
        FuzzKnobs(n_addrs=0).validate()


def test_fuzz_op_invariants():
    with pytest.raises(ValueError):
        FuzzOp(MemOpKind.LOAD)  # mem op needs a slot
    with pytest.raises(ValueError):
        FuzzOp(MemOpKind.COMPUTE, cycles=0)  # compute needs cycles


# ----------------------------------------------------------------------
# Lowering invariants
# ----------------------------------------------------------------------

def test_to_traces_maps_ops_one_to_one():
    cfg = GPUConfig.small()
    p = generate_program(5, FuzzKnobs(fence_density=0.3, p_compute=0.3,
                                      p_atomic=0.2))
    traces = p.to_traces(cfg)
    assert len(traces) == cfg.n_cores
    assert all(len(row) == cfg.warps_per_core for row in traces)
    bb = cfg.l1.block_bytes
    for (core, warp), ops in p.warps.items():
        lowered = traces[core][warp].ops
        assert len(lowered) == len(ops)  # prog_index == op list index
        for fop, top in zip(ops, lowered):
            assert top.kind is fop.kind
            if fop.is_mem:
                assert top.addr == FUZZ_BASE_ADDR + fop.slot * bb
    for row in traces:
        for t in row:
            t.validate()


def test_to_traces_rejects_oversized_program():
    cfg = GPUConfig.small().replace(n_cores=2, warps_per_core=1)
    p = generate_program(0, FuzzKnobs(n_cores=4))
    with pytest.raises(ValueError):
        p.to_traces(cfg)


def test_trace_round_trip():
    cfg = GPUConfig.small()
    p = generate_program(9, FuzzKnobs(n_cores=3, warps_per_core=2,
                                      fence_density=0.2, p_compute=0.2,
                                      n_addrs=3)).normalized()
    q = FuzzProgram.from_traces(p.to_traces(cfg),
                                block_bytes=cfg.l1.block_bytes)
    assert q.warps == p.warps
    assert q.n_addrs == len(p.used_slots())


def test_normalized_repacks_warps_and_slots():
    p = FuzzProgram(n_addrs=8, warps={
        (0, 0): [],                      # empty: dropped
        (2, 1): [S(5), L(5)],            # core 2 -> core 1
        (0, 3): [L(3)],                  # warp 3 -> warp 0
    })
    n = p.normalized()
    assert set(n.warps) == {(0, 0), (1, 0)}
    assert n.warps[(0, 0)] == [L(0)]          # slot 3 -> first-use slot 0
    assert n.warps[(1, 0)] == [S(1), L(1)]    # slot 5 -> slot 1
    assert n.n_addrs == 2


def test_pretty_smoke():
    p = generate_program(2, FuzzKnobs(fence_density=0.5))
    text = p.pretty()
    assert "c0w0" in text and "|" in text
