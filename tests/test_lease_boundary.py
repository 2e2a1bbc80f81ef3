"""Lease-boundary semantics: a lease is valid through ``exp`` *inclusive*
(``ver <= now <= exp``), expiry begins at ``exp + 1``. These tests pin the
convention at every site that compares a clock against a lease."""

from types import SimpleNamespace

import pytest

from repro.common.messages import Message
from repro.common.types import L1State, L2State, MemOpKind, MsgKind
from repro.core.lease import lease_expired, lease_valid, post_lease
from repro.gpu.warp import MemOpRecord
from repro.sim.gpusim import GPUSimulator
from tests.conftest import empty_traces


class TestHelpers:
    def test_valid_through_exp_inclusive(self):
        assert lease_valid(0, 0)
        assert lease_valid(5, 5)
        assert not lease_valid(6, 5)
        assert lease_valid(4, 5)

    def test_expired_is_strictly_past(self):
        assert not lease_expired(5, 5)
        assert lease_expired(6, 5)

    def test_post_lease_is_first_free_instant(self):
        assert post_lease(5) == 6
        assert not lease_valid(post_lease(5), 5)
        assert lease_valid(post_lease(5) - 1, 5)


def _stub_core():
    return SimpleNamespace(mem_op_done=lambda *a: None, finished=True)


def _load_record(addr=0):
    return MemOpRecord(MemOpKind.LOAD, addr=addr, core_id=0, warp_id=0,
                       prog_index=0)


class TestRCCBoundary:
    def _l1(self, cfg):
        sim = GPUSimulator(cfg, "RCC", empty_traces(cfg))
        l1 = sim.proto.l1s[0]
        l1.core = _stub_core()
        line = l1.cache.insert(0, L1State.V, l1._on_evict)
        line.exp = 10
        line.value = "tok"
        return l1

    def test_hit_at_now_equals_exp(self, small_cfg):
        l1 = self._l1(small_cfg)
        l1.clock.advance_to(10)
        rec = _load_record()
        l1.access(rec, warp=None)
        assert l1.stats.load_hits == 1
        assert l1.stats.load_expired == 0
        assert rec.read_value == "tok"

    def test_expired_at_exp_plus_one(self, small_cfg):
        l1 = self._l1(small_cfg)
        l1.clock.advance_to(11)
        l1.access(_load_record(), warp=None)
        assert l1.stats.load_hits == 0
        assert l1.stats.load_misses == 1
        assert l1.stats.load_expired == 1


class TestTCBoundary:
    def test_hit_at_now_equals_exp(self, small_cfg):
        sim = GPUSimulator(small_cfg, "TCS", empty_traces(small_cfg))
        l1 = sim.proto.l1s[0]
        l1.core = _stub_core()
        line = l1.cache.insert(0, L1State.V, l1._on_evict)
        line.exp = 0  # engine.now == 0 == exp: still valid
        line.value = "tok"
        rec = _load_record()
        l1.access(rec, warp=None)
        assert l1.stats.load_hits == 1
        assert rec.read_value == "tok"

    def test_expired_one_cycle_later(self, small_cfg):
        sim = GPUSimulator(small_cfg, "TCS", empty_traces(small_cfg))
        l1 = sim.proto.l1s[0]
        l1.core = _stub_core()
        line = l1.cache.insert(0, L1State.V, l1._on_evict)
        line.exp = 4
        line.value = "tok"
        sim.engine.schedule(5, lambda: l1.access(_load_record(), None))
        sim.engine.run()
        assert l1.stats.load_hits == 0
        assert l1.stats.load_expired == 1


class TestTCSStoreSerialization:
    """A buffered TCS store serializes at ``post_lease(exp)`` at the
    earliest, and read leases granted meanwhile never reach the earliest
    pending store's serialization point (the multi-buffered-store fix)."""

    def _l2_with_line(self, cfg):
        sim = GPUSimulator(cfg, "TCS", empty_traces(cfg))
        l2 = sim.proto.l2s[0]
        line = l2.cache.insert(0, L2State.V, l2._on_evict)
        line.exp = 20
        line.value = "old"
        return sim, l2, line

    @staticmethod
    def _write(value):
        return Message(kind=MsgKind.WRITE, addr=0, src=("core", 0),
                       dst=("l2", 0), now=0, value=value,
                       meta={"record": None, "warp": None})

    def test_ack_at_post_lease(self, small_cfg):
        sim, l2, line = self._l2_with_line(small_cfg)
        l2.on_message(self._write("t1"))
        # engine.now == 0, lease runs through 20 inclusive: the ack waits
        # for post_lease(20) == 21, never 20.
        assert line.meta["pending_acks"] == [21]

    def test_second_store_serializes_after_first(self, small_cfg):
        sim, l2, line = self._l2_with_line(small_cfg)
        l2.on_message(self._write("t1"))
        l2.on_message(self._write("t2"))
        assert line.meta["pending_acks"] == [21, 22]

    def test_grant_capped_below_earliest_pending_store(self, small_cfg):
        sim, l2, line = self._l2_with_line(small_cfg)
        l2.on_message(self._write("t1"))
        l2.on_message(self._write("t2"))
        # Regression: the old code capped at the *latest* pending ack
        # (store_busy_until - 1 == 21), so this grant could cover cycle 21
        # — one cycle after the first store had already serialized, letting
        # a stale L1 hit read the pre-store value.
        gets = Message(kind=MsgKind.GETS, addr=0, src=("core", 1),
                       dst=("l2", 0), now=0, meta={})
        l2.on_message(gets)
        assert line.exp <= min(line.meta["pending_acks"]) - 1 == 20
