"""The coherence-invariant sanitizer: silent on correct runs, loud (with a
trace dump naming the faulting event) when a protocol rule is broken."""

import json

import pytest

from repro.common.types import L1State, MemOpKind
from repro.config import GPUConfig
from repro.errors import InvariantViolation
from repro.fuzz.differential import DifferentialRunner
from repro.fuzz.generator import FuzzKnobs, generate_program
from repro.gpu.trace import atomic_op, fence_op, load_op, store_op
from repro.gpu.warp import MemOpRecord
from repro.sanitize.events import CoherenceEvent, EventKind, TraceRing
from repro.settings import Settings, SettingsError
from repro.sim.gpusim import GPUSimulator
from tests.conftest import (ALL_PROTOCOLS, empty_traces, program_traces,
                            run_program)


def contended_program(cfg):
    """Two blocks shared by four warps: hits, misses, write-after-read,
    atomics, and fences — every emission site fires at least once."""
    a, b = 0, cfg.l1.block_bytes
    return {
        (0, 0): [store_op(a), load_op(a), load_op(b), atomic_op(a)],
        (0, 1): [load_op(a), store_op(b), fence_op(), load_op(b)],
        (1, 0): [store_op(a), store_op(b), load_op(a), atomic_op(b)],
        (1, 1): [load_op(b), load_op(a), fence_op(), store_op(a)],
    }


class TestHappyPath:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_quiet_and_sees_events(self, tiny_cfg, protocol):
        traces = program_traces(tiny_cfg, contended_program(tiny_cfg))
        sim = GPUSimulator(tiny_cfg, protocol, traces, "litmus",
                           sanitize=True)
        res = sim.run()  # a violation would raise InvariantViolation
        assert res.cycles > 0
        assert sim.sanitizer is not None
        assert sim.sanitizer.events_seen > 0

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_sanitize_does_not_change_results(self, tiny_cfg, protocol):
        prog = contended_program(tiny_cfg)
        plain = run_program(tiny_cfg, protocol, prog)
        checked = run_program(tiny_cfg, protocol, prog, sanitize=True)
        assert plain.to_payload() == checked.to_payload()


class TestEnvToggles:
    """``RCC_SANITIZE`` / ``RCC_TRACE_OUT`` as parsed into Settings."""

    def test_disabled_by_default(self):
        assert not Settings.from_env({}).sanitize
        assert not Settings().sanitize

    def test_truthy_values(self):
        for v in ("1", "true", "YES", "on"):
            assert Settings.from_env({"RCC_SANITIZE": v}).sanitize
        for v in ("0", "false", "", "off"):
            assert not Settings.from_env({"RCC_SANITIZE": v}).sanitize
        with pytest.raises(SettingsError, match="RCC_SANITIZE"):
            Settings.from_env({"RCC_SANITIZE": "maybe"})

    def test_trace_out(self):
        assert Settings.from_env({}).trace_out is None
        assert Settings.from_env({"RCC_TRACE_OUT": ""}).trace_out is None
        assert Settings.from_env(
            {"RCC_TRACE_OUT": "t.jsonl"}).trace_out == "t.jsonl"


class TestTraceRing:
    @staticmethod
    def _ev(seq):
        return CoherenceEvent(seq, cycle=seq, kind=EventKind.L1_LOAD_HIT,
                              unit="L1", unit_id=0, addr=0, fields={})

    def test_keeps_last_n(self):
        ring = TraceRing(depth=4)
        for i in range(10):
            ring.append(self._ev(i))
        assert [ev.seq for ev in ring.events()] == [6, 7, 8, 9]
        assert ring.total == 10

    def test_dump_never_clobbers(self, tmp_path):
        ring = TraceRing(depth=4)
        ring.append(self._ev(1))
        path = str(tmp_path / "trace.jsonl")
        first = ring.dump_jsonl(path)
        second = ring.dump_jsonl(path)
        assert first == path
        assert second == path + ".1"
        assert json.loads(open(first).readline())["seq"] == 1

    def test_tail_text_empty(self):
        assert "no coherence events" in TraceRing().tail_text()


class TestInjectedBug:
    def test_lease_off_by_one_is_caught(self, small_cfg, tmp_path,
                                        monkeypatch):
        # Re-introduce the classic off-by-one: treat an L1 copy as valid
        # one cycle past its lease. The very first stale hit must trip the
        # sanitizer and dump a trace naming the faulting event.
        monkeypatch.setattr("repro.core.rcc_l1.lease_valid",
                            lambda now, exp: now <= exp + 1)
        trace = str(tmp_path / "violation.jsonl")
        sim = GPUSimulator(small_cfg, "RCC", empty_traces(small_cfg),
                           sanitize=True, trace_out=trace)
        l1 = sim.proto.l1s[0]
        line = l1.cache.insert(0, L1State.V, l1._on_evict)
        line.exp = 10
        line.value = "stale"
        l1.clock.advance_to(11)  # logically past the lease
        rec = MemOpRecord(MemOpKind.LOAD, addr=0, core_id=0, warp_id=0,
                          prog_index=0)
        with pytest.raises(InvariantViolation) as exc_info:
            l1.access(rec, warp=None)
        err = exc_info.value
        assert err.invariant == "rcc.read.within_lease"
        assert err.trace_path == trace
        dumped = [json.loads(s) for s in open(trace)]
        assert dumped[-1]["kind"] == EventKind.L1_LOAD_HIT
        assert dumped[-1]["now"] == 11
        assert dumped[-1]["exp"] == 10
        assert "rcc.read.within_lease" in str(err)

    def test_without_sanitizer_bug_is_silent(self, small_cfg, monkeypatch):
        # Control: the same injected bug goes unnoticed when --sanitize is
        # off (which is why the sanitizer exists).
        monkeypatch.setattr("repro.core.rcc_l1.lease_valid",
                            lambda now, exp: now <= exp + 1)
        sim = GPUSimulator(small_cfg, "RCC", empty_traces(small_cfg))
        l1 = sim.proto.l1s[0]
        line = l1.cache.insert(0, L1State.V, l1._on_evict)
        line.exp = 10
        line.value = "stale"
        l1.clock.advance_to(11)
        rec = MemOpRecord(MemOpKind.LOAD, addr=0, core_id=0, warp_id=0,
                          prog_index=0)
        l1.access(rec, warp=None)  # no exception: the stale hit "succeeds"
        assert rec.read_value == "stale"


class TestVIPerStoreTracking:
    """Regression: the VI (store-past-lease) invariant is judged per store
    op, not per (core, block). Found by hostile-workload fuzzing: a store
    that issued with NO copy and merged at the L2 before any lease existed
    is legally acked with ver=0; that stale ack must not be judged against
    the pre-store copy a *later* store snapshotted."""

    @staticmethod
    def _suite():
        from repro.sanitize.invariants import RCCInvariants
        return RCCInvariants(ts_bits=16)

    @staticmethod
    def _ev(kind, seq=1, **fields):
        return CoherenceEvent(seq, cycle=seq, kind=kind, unit="L1",
                              unit_id=3, addr=0x1000, fields=fields)

    def _feed(self, suite, kind, **fields):
        v = suite.check(self._ev(kind, **fields))
        assert v is None, v
        return v

    def test_pre_copy_store_ack_not_judged_against_later_snapshot(self):
        suite = self._suite()
        # Store op=1 issues with no readable copy (cold block).
        self._feed(suite, EventKind.L1_STORE_ISSUE, op=1, copy_exp=None,
                   now=0, view="write", epoch=0)
        # The block then fills with a lease, and op=2 issues under it.
        self._feed(suite, EventKind.L1_FILL, ver=0, exp=8, now_after=0,
                   view="read", epoch=0)
        self._feed(suite, EventKind.L1_STORE_ISSUE, op=2, copy_exp=8,
                   now=0, view="write", epoch=0)
        # op=1's ack (merged at the L2 before the lease existed) carries
        # ver=0 — legal, and must not trip op=2's exp=8 snapshot.
        self._feed(suite, EventKind.L1_STORE_ACK, op=1, ver=0, now_after=0,
                   epoch=0, cur_epoch=0, view="write")
        # op=2's own ack must still exceed its snapshot.
        self._feed(suite, EventKind.L1_STORE_ACK, op=2, ver=9, now_after=9,
                   epoch=0, cur_epoch=0, view="write")

    def test_invariant_still_fires_for_the_matching_store(self):
        suite = self._suite()
        self._feed(suite, EventKind.L1_STORE_ISSUE, op=7, copy_exp=8,
                   now=0, view="write", epoch=0)
        v = suite.check(self._ev(EventKind.L1_STORE_ACK, op=7, ver=5,
                                 now_after=5, epoch=0, cur_epoch=0,
                                 view="write"))
        assert v is not None and v.invariant == "rcc.vi.store_past_lease"

    def test_renew_extends_every_outstanding_snapshot(self):
        suite = self._suite()
        self._feed(suite, EventKind.L1_STORE_ISSUE, op=1, copy_exp=8,
                   now=0, view="write", epoch=0)
        self._feed(suite, EventKind.L1_STORE_ISSUE, op=2, copy_exp=8,
                   now=0, view="write", epoch=0)
        self._feed(suite, EventKind.L1_RENEW, exp=16, epoch=0)
        v = suite.check(self._ev(EventKind.L1_STORE_ACK, op=1, ver=9,
                                 now_after=9, epoch=0, cur_epoch=0,
                                 view="write"))
        assert v is not None and v.invariant == "rcc.vi.store_past_lease"
        self._feed(suite, EventKind.L1_STORE_ACK, op=2, ver=17,
                   now_after=17, epoch=0, cur_epoch=0, view="write")

    def test_fuzz_reproducer_runs_clean_end_to_end(self):
        # The exact cell the hostile fuzzer found (also archived in
        # tests/corpus/hostile_pingpong_rccwo_viack.cell).
        from repro.sim.gpusim import run_simulation
        from repro.workloads import get_workload
        cfg = GPUConfig.small()
        wl = get_workload("pingpong:p_store=0.0609,burst=13",
                          intensity=0.25, seed=5996351577606141765)
        res = run_simulation(cfg, "RCC-WO", wl.generate(cfg), wl.spec,
                             sanitize=True)
        assert res.mem_ops == 1248


class TestFuzzIntegration:
    def test_runner_with_sanitizer_passes(self):
        knobs = FuzzKnobs(n_cores=2, warps_per_core=1, ops_per_warp=5,
                          n_addrs=2, p_store=0.4, p_atomic=0.1)
        program = generate_program(3, knobs)
        runner = DifferentialRunner(cfg=GPUConfig.small(),
                                    protocols=["RCC", "MESI"],
                                    sanitize=True)
        assert all(ex.sanitize for ex in runner.executors)
        verdict = runner.check_program(program)
        assert verdict.passed, verdict.failures
