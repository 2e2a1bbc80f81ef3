"""Protocol-level tests for RCC: the three ordering rules, instant write
permissions, VI-state readability, lease extension (RENEW), the lease
predictor in vivo, L2 evictions through ``mnow``, and MSHR write merging.

These run tiny programs through the full simulator and inspect controller
state and statistics, pinning the behaviours of paper §III.
"""

import pytest

from repro.common.types import L1State, MemOpKind
from repro.config import GPUConfig, TimestampConfig
from repro.gpu.trace import atomic_op, compute_op, load_op, store_op
from repro.sim.gpusim import GPUSimulator
from tests.conftest import program_traces

BLOCK = 128


def build(cfg, protocol, programs, **kw):
    return GPUSimulator(cfg, protocol, program_traces(cfg, programs),
                        "rcc-test", **kw)


def test_store_acquires_write_permission_instantly(tiny_cfg):
    """An RCC store to data leased by other cores must NOT wait for the
    lease: its latency is a plain round trip, unlike TCS."""
    program = {
        (0, 0): [load_op(0), compute_op(20), load_op(0)],   # reader holds lease
        (1, 0): [compute_op(300), store_op(0)],             # writer
    }
    rcc = build(tiny_cfg, "RCC", program, record_ops=True)
    r_rcc = rcc.run()
    tcs = build(tiny_cfg, "TCS", program, record_ops=True)
    r_tcs = tcs.run()

    def store_latency(res):
        return [op.latency for op in res.op_logs
                if op.kind is MemOpKind.STORE][0]

    assert store_latency(r_rcc) < store_latency(r_tcs)
    assert r_tcs.l2_store_lease_wait > 0
    assert r_rcc.l2_store_lease_wait == 0


def test_rule3_write_version_exceeds_outstanding_lease(tiny_cfg):
    """After a store, the block's L2 version must exceed the lease that was
    outstanding when the store arrived (rule 3)."""
    sim = build(tiny_cfg, "RCC", {
        (0, 0): [load_op(0)],
        (1, 0): [compute_op(200), store_op(0)],
    })
    sim.run()
    bank = sim.proto.l2s[sim.amap.bank_of(0)]
    line = bank.cache.lookup(0)
    assert line.ver > 0
    # The lease handed to core 0 ended at most at line.exp at store time;
    # ver must have been pushed past it.
    assert line.ver > tiny_cfg.ts.lease_min


def test_writer_clock_advances_past_lease(tiny_cfg):
    sim = build(tiny_cfg, "RCC", {
        (0, 0): [load_op(0)],
        (1, 0): [compute_op(200), store_op(0)],
    })
    sim.run()
    writer = sim.proto.l1s[1]
    bank = sim.proto.l2s[sim.amap.bank_of(0)]
    assert writer.clock.value == bank.cache.lookup(0).ver


def test_reader_picks_up_write_version_rule1(tiny_cfg):
    """A read of written data advances the reading core's now to ver."""
    sim = build(tiny_cfg, "RCC", {
        (0, 0): [store_op(0)],
        (1, 0): [compute_op(500), load_op(0)],
    }, record_ops=True)
    res = sim.run()
    reader = sim.proto.l1s[1]
    bank = sim.proto.l2s[sim.amap.bank_of(0)]
    assert reader.clock.value >= bank.cache.lookup(0).ver
    load = [op for op in res.op_logs if op.kind is MemOpKind.LOAD][0]
    store = [op for op in res.op_logs if op.kind is MemOpKind.STORE][0]
    assert load.read_value == store.value


def test_vi_state_keeps_old_copy_readable(tiny_cfg):
    """While a store ack is outstanding (VI), *other* warps may still read
    the pre-store copy (GPU-specific optimization, paper §III-C)."""
    cfg = tiny_cfg
    # Warp 0: load fills the line (~105 cy with the cold DRAM fetch),
    # computes, stores at ~305; the ack returns ~55 cy later. Warp 1's
    # load at ~320 lands inside the VI window and must hit the retained
    # pre-store copy.
    # (COMPUTE ops overlap outstanding loads, so the store issues at
    # ~200 and its ack lands ~55 cycles later.)
    sim = build(cfg, "RCC", {
        (0, 0): [load_op(0), compute_op(200), store_op(0)],
        (0, 1): [compute_op(230), load_op(0)],  # reads while VI
    }, record_ops=True)
    res = sim.run()
    # The sibling's load must have hit in the L1 (no extra GETS).
    assert sim.proto.l1s[0].stats.load_hits >= 1


def test_same_warp_cannot_read_own_store_from_vi(tiny_cfg):
    """The VI copy is readable by *other* warps only: the writing warp's
    own load must fetch the new value (read-own-write)."""
    sim = build(tiny_cfg, "RCC-WO", {
        (0, 0): [load_op(0), store_op(0), load_op(0)],
    }, record_ops=True)
    res = sim.run()
    loads = sorted((op for op in res.op_logs if op.kind is MemOpKind.LOAD),
                   key=lambda o: o.prog_index)
    store = [op for op in res.op_logs if op.kind is MemOpKind.STORE][0]
    assert loads[1].read_value == store.value


def test_self_invalidation_after_final_ack(tiny_cfg):
    """VI -> I on the last store ack: the stale copy is dropped."""
    sim = build(tiny_cfg, "RCC", {
        (0, 0): [load_op(0), store_op(0)],
    })
    sim.run()
    l1 = sim.proto.l1s[0]
    assert l1.stats.self_invalidations >= 1
    line = l1.cache.lookup(0)
    assert line is None or line.state is not L1State.V


def test_renew_grants_on_unchanged_block(tiny_cfg):
    """An expired copy of an unwritten block gets a data-less RENEW."""
    cfg = tiny_cfg.replace(ts=TimestampConfig(
        lease_min=8, lease_max=16, lease_default=8,
        predictor_enabled=False, livelock_tick_cycles=2000))
    # Warp reads A, then repeatedly leases-and-writes B (each write must
    # push past B's fresh lease, advancing the warp's clock), then re-reads
    # A: A's lease has logically expired but A is unchanged.
    ops = [load_op(0)]
    for i in range(6):
        ops += [load_op(10 * BLOCK), store_op(10 * BLOCK)]
    ops += [load_op(0)]
    sim = build(cfg, "RCC", {(0, 0): ops})
    res = sim.run()
    assert res.l1_load_expired >= 1
    assert res.l2_renew_grants >= 1
    assert res.l1_renews >= 1


def test_renew_not_granted_when_block_changed(tiny_cfg):
    cfg = tiny_cfg.replace(ts=TimestampConfig(
        lease_min=8, lease_max=16, lease_default=8,
        predictor_enabled=False, livelock_tick_cycles=2000))
    # Core 0 advances its own logical clock (lease/write loop on B) so its
    # re-read of A is logically after core 1's store to A — it must fetch
    # the new value, not get a renewal. (Without the clock advance, reading
    # the *old* A forever would be legal: that is the relativistic point.)
    advance = []
    for i in range(6):
        advance += [load_op(10 * BLOCK), store_op(10 * BLOCK)]
    sim = build(cfg, "RCC", {
        (0, 0): [load_op(0)] + advance + [compute_op(400), load_op(0)],
        (1, 0): [compute_op(100), store_op(0)],
    }, record_ops=True)
    res = sim.run()
    # Core 0's second load must return the new value, not a renewed copy.
    loads = sorted((op for op in res.op_logs
                    if op.kind is MemOpKind.LOAD and op.core_id == 0),
                   key=lambda o: o.prog_index)
    store = [op for op in res.op_logs
             if op.kind is MemOpKind.STORE and op.addr == 0][0]
    assert loads[-1].read_value == store.value


def test_predictor_shortens_after_write_and_grows_on_renew(tiny_cfg):
    sim = build(tiny_cfg, "RCC", {
        (0, 0): [store_op(0), load_op(0)],
    })
    sim.run()
    bank = sim.proto.l2s[sim.amap.bank_of(0)]
    line = bank.cache.lookup(0)
    assert bank.predictor.lease_for(line) == tiny_cfg.ts.lease_min


def test_l2_eviction_folds_into_mnow(tiny_cfg):
    """Evicted blocks carry max(exp+1, ver) into the partition's mnow."""
    n_blocks = (tiny_cfg.l2_per_bank.size_bytes
                // tiny_cfg.l2_per_bank.block_bytes)
    span = 4 * n_blocks * tiny_cfg.l2_banks
    ops = [load_op(i * BLOCK) for i in range(0, span, 2)][:160]
    ops += [store_op(3 * BLOCK)]
    sim = build(tiny_cfg, "RCC", {(0, 0): ops})
    res = sim.run()
    assert res.l2_evictions > 0
    assert any(d.mnow > 0 for d in sim.drams)


def test_atomic_miss_uses_iav_and_returns_memory_value(tiny_cfg):
    sim = build(tiny_cfg, "RCC", {
        (0, 0): [atomic_op(7 * BLOCK)],
    }, record_ops=True)
    res = sim.run()
    at = res.op_logs[0]
    assert at.read_value == ("init", 7 * BLOCK)
    bank = sim.proto.l2s[sim.amap.bank_of(7 * BLOCK)]
    line = bank.cache.lookup(7 * BLOCK)
    assert line.value == at.value     # RMW result installed
    assert line.dirty


def test_write_miss_acked_before_dram_fill(tiny_cfg):
    """RCC acks a write that misses in L2 against lastwr/mnow without
    waiting for the DRAM fill (paper §III-D)."""
    sim = build(tiny_cfg, "RCC", {(0, 0): [store_op(9 * BLOCK)]},
                record_ops=True)
    res = sim.run()
    st = res.op_logs[0]
    # Round trip without DRAM: must complete well before a DRAM-inclusive
    # round trip (NoC ~ l2_min_round_trip, DRAM adds min_latency more).
    assert st.latency < tiny_cfg.l2_min_round_trip + tiny_cfg.dram.min_latency


def test_concurrent_stores_same_block_allowed(tiny_cfg):
    """Unlike MESI/TCS, RCC does not serialize same-block stores in the L1
    MSHR (the FSM sends WRITE from II state)."""
    sim = build(tiny_cfg, "RCC", {
        (0, 0): [store_op(0)],
        (0, 1): [store_op(0)],
    })
    res = sim.run()
    assert res.structural_stalls == 0


def test_livelock_tick_advances_idle_clock():
    cfg = GPUConfig.small().replace(n_cores=2, warps_per_core=2)
    cfg.ts.livelock_tick_cycles = 100
    sim = build(cfg, "RCC", {
        (0, 0): [load_op(0), compute_op(5000), load_op(0)],
    })
    sim.run()
    assert sim.proto.l1s[0].clock.value > 0
