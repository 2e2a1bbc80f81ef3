"""Protocol-level tests for the MESI directory baseline and SC-ideal."""

import pytest

from repro.common.types import MemOpKind
from repro.config import GPUConfig
from repro.exec import SimCell, run_cell
from repro.gpu.trace import atomic_op, compute_op, load_op, store_op
from repro.sim.gpusim import GPUSimulator
from tests.conftest import program_traces

BLOCK = 128


def build(cfg, protocol, programs, **kw):
    return GPUSimulator(cfg, protocol, program_traces(cfg, programs),
                        "mesi-test", **kw)


def test_store_invalidate_sharers_before_ack(tiny_cfg):
    sim = build(tiny_cfg, "MESI", {
        (0, 0): [load_op(0)],
        (1, 0): [compute_op(200), store_op(0)],
    }, record_ops=True)
    res = sim.run()
    assert res.l2_invalidations_sent >= 1
    assert res.l1_invalidations >= 1
    # Sharer's copy is gone.
    assert sim.proto.l1s[0].cache.lookup(0) is None


def test_store_latency_grows_with_sharers(tiny_cfg):
    """Both runs store to an L2-resident block; only the second has a
    sharer to invalidate, and only it pays the extra round trip."""
    lone = build(tiny_cfg, "MESI", {
        (1, 0): [store_op(0), compute_op(400), store_op(0)],
    }, record_ops=True)
    r_lone = lone.run()
    shared = build(tiny_cfg, "MESI", {
        (0, 0): [compute_op(200), load_op(0)],
        (1, 0): [store_op(0), compute_op(400), store_op(0)],
    }, record_ops=True)
    r_shared = shared.run()

    def second_store_latency(res):
        return sorted((o for o in res.op_logs
                       if o.kind is MemOpKind.STORE and o.core_id == 1),
                      key=lambda o: o.prog_index)[-1].latency

    assert second_store_latency(r_shared) > second_store_latency(r_lone)


def test_load_hits_until_invalidated(tiny_cfg):
    sim = build(tiny_cfg, "MESI", {
        (0, 0): [load_op(0), compute_op(30), load_op(0)],
    })
    res = sim.run()
    assert res.l1_load_hits == 1


def test_directory_tracks_multiple_sharers(tiny_cfg):
    sim = build(tiny_cfg, "MESI", {
        (0, 0): [load_op(0)],
        (1, 0): [load_op(0)],
    })
    sim.run()
    bank = sim.proto.l2s[sim.amap.bank_of(0)]
    assert bank.cache.lookup(0).sharers == {("core", 0), ("core", 1)}


def test_writer_own_l1_also_invalidated(tiny_cfg):
    """Sibling warps of the writer's SM may hold the block: the directory
    must invalidate the requester's L1 too."""
    sim = build(tiny_cfg, "MESI", {
        (0, 0): [load_op(0)],                       # core 0 caches the block
        (0, 1): [compute_op(250), store_op(0)],     # same core stores
        (1, 0): [load_op(0)],
    }, record_ops=True)
    res = sim.run()
    line = sim.proto.l1s[0].cache.lookup(0)
    assert line is None  # stale copy dropped even on the writing core


def test_atomic_is_rmw_at_directory(tiny_cfg):
    sim = build(tiny_cfg, "MESI", {
        (0, 0): [store_op(0), atomic_op(0)],
    }, record_ops=True)
    res = sim.run()
    at = [o for o in res.op_logs if o.kind is MemOpKind.ATOMIC][0]
    st = [o for o in res.op_logs if o.kind is MemOpKind.STORE][0]
    assert at.read_value == st.value


def test_l2_eviction_recalls_sharers(tiny_cfg):
    n_blocks = (tiny_cfg.l2_per_bank.size_bytes
                // tiny_cfg.l2_per_bank.block_bytes)
    span = 3 * n_blocks * tiny_cfg.l2_banks
    ops = [load_op(0)] + [load_op((i + 4) * BLOCK) for i in range(span)][:200]
    sim = build(tiny_cfg, "MESI", {(0, 0): ops})
    res = sim.run()
    assert res.l2_evictions > 0


@pytest.mark.parametrize("protocol", ["MESI", "SC-IDEAL"])
def test_every_dropped_copy_is_counted_at_the_l2(protocol):
    """Write invalidations and eviction recalls both count toward the L2's
    ``invalidations_sent``, so it matches what the L1s received (kmn
    evicts lines that have sharers)."""
    cell = SimCell(cfg=GPUConfig.small(), protocol=protocol,
                   workload="kmn", intensity=0.25)
    res = run_cell(cell)
    assert res.l2_evictions > 0
    assert res.l2_invalidations_sent == res.l1_invalidations > 0


def test_ideal_store_no_invalidate_latency(tiny_cfg):
    mesi = build(tiny_cfg, "MESI", {
        (0, 0): [load_op(0)],
        (1, 0): [compute_op(200), store_op(0)],
    }, record_ops=True)
    r_mesi = mesi.run()
    ideal = build(tiny_cfg, "SC-IDEAL", {
        (0, 0): [load_op(0)],
        (1, 0): [compute_op(200), store_op(0)],
    }, record_ops=True)
    r_ideal = ideal.run()

    def st_lat(res):
        return [o.latency for o in res.op_logs
                if o.kind is MemOpKind.STORE][0]

    assert st_lat(r_ideal) < st_lat(r_mesi)
    # Ideal invalidations are free: no INV traffic on the NoC.
    assert r_ideal.l1_invalidations >= 1
    from repro.common.types import MsgKind
    assert ideal.noc.stats.msgs_by_kind[MsgKind.INV] == 0


def test_ideal_still_coherent(tiny_cfg):
    sim = build(tiny_cfg, "SC-IDEAL", {
        (0, 0): [load_op(0), compute_op(400), load_op(0)],
        (1, 0): [compute_op(150), store_op(0)],
    }, record_ops=True)
    res = sim.run()
    loads = sorted((o for o in res.op_logs
                    if o.kind is MemOpKind.LOAD and o.core_id == 0),
                   key=lambda o: o.prog_index)
    st = [o for o in res.op_logs if o.kind is MemOpKind.STORE][0]
    assert loads[-1].read_value == st.value


class TestEvictionRecallRace:
    """Regression: an L2 eviction recalls its sharers' copies, but the
    recall acks travel on the NoC. Until every ack returns, the directory
    must refuse to re-allocate the block — a refetched line starts with an
    empty sharer set, so a store could apply while an old sharer still
    holds a (now stale) valid copy, silently breaking write atomicity.
    Found by the coherence-invariant sanitizer (mesi.write.single_writer)
    on the bfs workload."""

    def test_refetch_blocked_until_recall_acks(self, small_cfg):
        from repro.common.messages import Message
        from repro.common.types import L2State, MsgKind
        from tests.conftest import empty_traces

        sim = GPUSimulator(small_cfg, "MESI", empty_traces(small_cfg),
                           "recall-race", sanitize=True)
        l2 = sim.proto.l2s[0]
        inbox = []
        sim.noc.register(("core", 0),
                         lambda m: inbox.append((sim.engine.now, m)))

        # Directory line with one sharer, evicted the way cache.insert
        # evicts a victim (remove + callback).
        line = l2.cache.insert(0, L2State.V, l2._on_evict)
        line.value = "old"
        line.sharers.add(("core", 1))
        l2.cache.remove(0)
        l2._on_evict(line)
        assert l2._recalls[0] == 1  # recall INV in flight to core 1

        # A store for the same block arrives before the recall ack
        # returns: it must be retried, not refetched.
        l2.on_message(Message(kind=MsgKind.GETX, addr=0, src=("core", 0),
                              dst=("l2", 0), value="new",
                              meta={"record": None, "warp": None}))
        assert l2.cache.lookup(0) is None
        assert l2.mshr.get(0) is None

        # Core 1's L1 acks the recall over the NoC; the retried store
        # then refetches and applies with no stale copy anywhere.
        sim.engine.run()
        assert l2._recalls == {}
        assert l2.cache.lookup(0).value == "new"
        acks = [m for _, m in inbox if m.kind is MsgKind.ACK]
        assert len(acks) == 1
        assert sim.sanitizer.events_seen > 0  # and it stayed quiet
