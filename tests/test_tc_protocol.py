"""Protocol-level tests for TC-strong and TC-weak (physical timestamps)."""

import pytest

from repro.common.types import MemOpKind
from repro.config import GPUConfig, TCConfig
from repro.gpu.trace import compute_op, fence_op, load_op, store_op
from repro.sim.gpusim import GPUSimulator
from tests.conftest import program_traces

BLOCK = 128


def build(cfg, protocol, programs, **kw):
    return GPUSimulator(cfg, protocol, program_traces(cfg, programs),
                        "tc-test", **kw)


def fixed_lease_cfg(lease=200):
    cfg = GPUConfig.small().replace(
        n_cores=2, warps_per_core=2,
        tc=TCConfig(lease_min=lease, lease_default=lease, lease_max=lease))
    return cfg


def test_tcs_store_waits_for_lease_expiry():
    cfg = fixed_lease_cfg(lease=500)
    sim = build(cfg, "TCS", {
        (0, 0): [load_op(0)],                       # takes a 500-cycle lease
        (1, 0): [compute_op(150), store_op(0)],     # store under the lease
    }, record_ops=True)
    res = sim.run()
    st = [op for op in res.op_logs if op.kind is MemOpKind.STORE][0]
    # The ack cannot return before the lease expires.
    assert st.complete_cycle > 500
    assert res.l2_store_lease_wait > 0


def test_tcs_store_to_expired_block_does_not_wait():
    cfg = fixed_lease_cfg(lease=100)
    sim = build(cfg, "TCS", {
        (0, 0): [load_op(0)],
        (1, 0): [compute_op(800), store_op(0)],  # lease long gone
    })
    res = sim.run()
    assert res.l2_store_lease_wait == 0


def test_tcw_store_does_not_wait_but_fence_does():
    cfg = fixed_lease_cfg(lease=600)
    tcw = build(cfg, "TCW", {
        (0, 0): [load_op(0)],
        (1, 0): [compute_op(150), store_op(0), fence_op(),
                 store_op(50 * BLOCK)],
    }, record_ops=True)
    res = tcw.run()
    stores = sorted((op for op in res.op_logs
                     if op.kind is MemOpKind.STORE and op.core_id == 1),
                    key=lambda o: o.prog_index)
    # First store acks quickly (well before the lease expires)...
    assert stores[0].complete_cycle < 600
    # ...but the fence holds the next store until the GWCT (lease expiry).
    assert stores[1].issue_cycle >= 600
    assert res.fence_wait_cycles > 0


def test_tcw_fence_without_pending_writes_is_cheap():
    cfg = fixed_lease_cfg()
    sim = build(cfg, "TCW", {
        (0, 0): [fence_op(), load_op(0)],
    })
    res = sim.run()
    assert res.fence_wait_cycles <= 2


def test_lease_grants_enable_l1_hits():
    cfg = fixed_lease_cfg(lease=5000)
    sim = build(cfg, "TCS", {
        (0, 0): [load_op(0), compute_op(50), load_op(0), compute_op(50),
                 load_op(0)],
    })
    res = sim.run()
    assert res.l1_load_hits == 2


def test_expired_copy_refetches():
    cfg = fixed_lease_cfg(lease=50)
    sim = build(cfg, "TCS", {
        (0, 0): [load_op(0), compute_op(2000), load_op(0)],
    })
    res = sim.run()
    assert res.l1_load_expired == 1
    assert res.l1_load_hits == 0


def test_tcs_same_block_stores_serialize_in_l1():
    cfg = fixed_lease_cfg()
    sim = build(cfg, "TCS", {
        (0, 0): [store_op(0)],
        (0, 1): [store_op(0)],
    })
    res = sim.run()
    assert res.structural_stalls > 0  # the second store retried


def test_tcw_gwct_tracked_per_warp():
    cfg = fixed_lease_cfg(lease=700)
    sim = build(cfg, "TCW", {
        (0, 0): [load_op(0)],
        (1, 0): [compute_op(100), store_op(0)],         # GWCT ~700
        (1, 1): [compute_op(100), store_op(60 * BLOCK),  # unleased: GWCT ~now
                 fence_op(), store_op(61 * BLOCK)],
    }, record_ops=True)
    res = sim.run()
    w1_stores = sorted((op for op in res.op_logs
                        if op.kind is MemOpKind.STORE and op.core_id == 1
                        and op.warp_id == 1), key=lambda o: o.prog_index)
    # Warp 1's fence must not inherit warp 0's large GWCT.
    assert w1_stores[1].issue_cycle < 650


def test_tc_predictor_adapts():
    cfg = GPUConfig.small().replace(n_cores=2, warps_per_core=2)
    sim = build(cfg, "TCS", {
        (0, 0): [load_op(0), store_op(0), load_op(0), store_op(0)],
    })
    sim.run()
    bank = sim.proto.l2s[sim.amap.bank_of(0)]
    line = bank.cache.lookup(0)
    assert line.meta.get("tc_lease") == cfg.tc.lease_min


def test_parked_lease_survives_eviction():
    """A write to a block whose unexpired lease was evicted from L2 must
    still wait for that lease (parked in an MSHR slot)."""
    cfg = fixed_lease_cfg(lease=100000)
    n_blocks = cfg.l2_per_bank.size_bytes // cfg.l2_per_bank.block_bytes
    span_blocks = 3 * n_blocks * cfg.l2_banks
    # Lease block 0, then sweep enough blocks to evict it from L2, then
    # store to it.
    ops = [load_op(0)]
    ops += [load_op((i + 8) * BLOCK) for i in range(0, span_blocks, 1)][:200]
    sim = build(cfg, "TCS", {
        (0, 0): ops,
        (1, 0): [compute_op(4000), store_op(0)],
    }, record_ops=True)
    res = sim.run()
    st = [op for op in res.op_logs if op.kind is MemOpKind.STORE][0]
    assert st.complete_cycle > 100000  # waited for the parked lease
