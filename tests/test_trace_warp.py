"""Unit tests for trace ops and warp state."""

import pickle

import pytest

from repro.common.types import MemOpKind
from repro.errors import TraceError
from repro.gpu.trace import (
    TraceOp, WarpTrace, atomic_op, barrier_op, compute_op, fence_op, load_op,
    store_op,
)
from repro.gpu.warp import MemOpRecord, Warp
from repro.workloads.base import BLOCK, TraceBuilder


class TestTraceOps:
    def test_constructors(self):
        assert load_op(0x100).kind is MemOpKind.LOAD
        assert store_op(0x100).kind is MemOpKind.STORE
        assert atomic_op(0x100).kind is MemOpKind.ATOMIC
        assert compute_op(5).cycles == 5
        assert fence_op().kind is MemOpKind.FENCE
        assert barrier_op(3).barrier_id == 3

    def test_mem_op_requires_address(self):
        for kind in (MemOpKind.LOAD, MemOpKind.STORE, MemOpKind.ATOMIC):
            with pytest.raises(TraceError, match="requires an address"):
                TraceOp(kind)

    def test_compute_requires_positive_cycles(self):
        for cycles in (0, -1):
            with pytest.raises(TraceError, match="positive cycle count"):
                compute_op(cycles)

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError, match="negative address -4"):
            load_op(-4)

    def test_kind_predicates(self):
        assert MemOpKind.LOAD.is_global_mem
        assert MemOpKind.ATOMIC.is_write
        assert not MemOpKind.LOAD.is_write
        assert not MemOpKind.FENCE.is_global_mem
        assert not MemOpKind.BARRIER.is_write

    def test_trace_counts(self):
        t = WarpTrace(0, 0)
        t.extend([load_op(0), compute_op(3), store_op(128), fence_op()])
        assert len(t) == 4
        assert t.n_mem_ops == 2

    def test_barrier_validation(self):
        t = WarpTrace(0, 0)
        t.extend([barrier_op(1), barrier_op(0)])
        with pytest.raises(TraceError):
            t.validate()


class TestTraceOpContract:
    """``TraceOp`` is a slotted record: value equality and hashing, the
    repr it had as a frozen dataclass, and pickling all hold."""

    FIELDS = dict(kind=MemOpKind.STORE, addr=0x180, cycles=0, barrier_id=0)

    def test_equal_fields_equal_ops(self):
        a, b = TraceOp(**self.FIELDS), TraceOp(**self.FIELDS)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("field,value", [
        ("kind", MemOpKind.LOAD), ("addr", 0x200), ("cycles", 7),
        ("barrier_id", 2)])
    def test_any_field_difference_is_unequal(self, field, value):
        base = TraceOp(**self.FIELDS)
        other = TraceOp(**dict(self.FIELDS, **{field: value}))
        assert base != other and not base == other

    def test_not_equal_to_a_tuple_of_its_fields(self):
        assert load_op(0) != (MemOpKind.LOAD, 0, 0, 0)

    def test_repr_unchanged(self):
        assert repr(load_op(0x100)) == (
            "TraceOp(kind=<MemOpKind.LOAD: 'LD'>, addr=256, cycles=0, "
            "barrier_id=0)")
        assert repr(compute_op(5)) == (
            "TraceOp(kind=<MemOpKind.COMPUTE: 'COMPUTE'>, addr=None, "
            "cycles=5, barrier_id=0)")
        assert repr(barrier_op(3)) == (
            "TraceOp(kind=<MemOpKind.BARRIER: 'BARRIER'>, addr=None, "
            "cycles=0, barrier_id=3)")

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        ops = [load_op(0x80), store_op(0), atomic_op(0x100), compute_op(9),
               fence_op(), barrier_op(4)]
        back = pickle.loads(pickle.dumps(ops, protocol))
        assert back == ops
        assert [repr(op) for op in back] == [repr(op) for op in ops]


class TestTraceBuilder:
    """Each builder method emits exactly the op its ``*_op`` helper
    returns."""

    def test_methods_match_helpers(self):
        b = TraceBuilder(2, 3)
        b.load(5)
        b.store(6)
        b.atomic(7)
        b.compute(11)
        b.compute(0)  # a zero-cycle compute emits nothing
        b.fence()
        b.barrier(4)
        assert b.trace.ops == [
            load_op(5 * BLOCK), store_op(6 * BLOCK), atomic_op(7 * BLOCK),
            compute_op(11), fence_op(), barrier_op(4)]
        assert (b.trace.core_id, b.trace.warp_id) == (2, 3)

    def test_negative_block_rejected(self):
        with pytest.raises(TraceError):
            TraceBuilder(0, 0).load(-1)


class TestWarp:
    def test_program_counter_walk(self):
        t = WarpTrace(0, 1)
        t.extend([load_op(0), store_op(0)])
        w = Warp(t)
        assert (w.pc, w.n_ops) == (0, 2) and not w.done
        assert w.ops[w.pc].kind is MemOpKind.LOAD
        w.pc += 1
        assert not w.done
        assert w.ops[w.pc].kind is MemOpKind.STORE
        w.pc += 1
        assert w.done

    def test_record_latency(self):
        r = MemOpRecord(MemOpKind.LOAD, 0x80, 1, 2, 3)
        r.issue_cycle = 10
        r.complete_cycle = 50
        assert r.latency == 40
        assert r.core_id == 1 and r.warp_id == 2 and r.prog_index == 3

    def test_record_seq_unique(self):
        a = MemOpRecord(MemOpKind.LOAD, 0, 0, 0, 0)
        b = MemOpRecord(MemOpKind.LOAD, 0, 0, 0, 0)
        assert a.seq != b.seq
