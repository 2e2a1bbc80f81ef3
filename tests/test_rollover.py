"""Timestamp rollover tests (paper §III-D).

A tiny timestamp width forces frequent rollovers; execution must stay
correct (all ops complete, values flow) across them.
"""

import dataclasses

import pytest

from repro.config import GPUConfig, TimestampConfig
from repro.core.rollover import RolloverManager
from repro.gpu.trace import compute_op, load_op, store_op
from repro.sim.gpusim import GPUSimulator, run_simulation
from repro.timing.engine import Engine
from repro.workloads import get_workload
from tests.conftest import program_traces


def narrow_cfg(bits=12, lease=16):
    cfg = GPUConfig.small().replace(n_cores=2, warps_per_core=2)
    cfg.ts = TimestampConfig(bits=bits, lease_min=8, lease_default=lease,
                             lease_max=lease, predictor_enabled=False,
                             livelock_tick_cycles=0)
    return cfg


def lease_write_loop(n, block_a=0, block_b=10 * 128):
    """Each (load B, store B) pair advances logical time by ~lease."""
    ops = [load_op(block_a)]
    for _ in range(n):
        ops += [load_op(block_b), store_op(block_b)]
    ops += [load_op(block_a)]
    return ops


def test_rollover_triggers_and_execution_completes():
    cfg = narrow_cfg(bits=10, lease=32)  # max 1023, guard band kicks early
    sim = GPUSimulator(cfg, "RCC", program_traces(cfg, {
        (0, 0): lease_write_loop(40),
        (1, 0): lease_write_loop(40, block_b=20 * 128),
    }), "rollover")
    res = sim.run()
    assert res.rollovers >= 1
    assert res.mem_ops == 2 * (1 + 80 + 1)


def test_clocks_reset_after_rollover():
    cfg = narrow_cfg(bits=10, lease=32)
    sim = GPUSimulator(cfg, "RCC", program_traces(cfg, {
        (0, 0): lease_write_loop(40),
    }), "rollover")
    sim.run()
    max_ts = cfg.ts.max_timestamp
    for l1 in sim.proto.l1s:
        assert l1.clock.value < max_ts
    for l2 in sim.proto.l2s:
        for line in l2.cache.lines():
            assert line.ver < max_ts
            assert line.exp < max_ts


def test_values_flow_across_rollover():
    """A store before the rollover must still be visible after it."""
    cfg = narrow_cfg(bits=10, lease=32)
    sim = GPUSimulator(cfg, "RCC", program_traces(cfg, {
        (0, 0): [store_op(0)] + lease_write_loop(40) + [load_op(0)],
    }), "rollover", record_ops=True)
    res = sim.run()
    assert res.rollovers >= 1
    loads = [op for op in res.op_logs
             if op.kind.name == "LOAD" and op.addr == 0]
    store = [op for op in res.op_logs
             if op.kind.name == "STORE" and op.addr == 0][0]
    assert loads[-1].read_value == store.value


def test_multiple_rollovers():
    cfg = narrow_cfg(bits=9, lease=32)
    sim = GPUSimulator(cfg, "RCC", program_traces(cfg, {
        (0, 0): lease_write_loop(80),
    }), "rollover")
    res = sim.run()
    assert res.rollovers >= 2


def test_rollover_with_rcc_wo():
    cfg = narrow_cfg(bits=10, lease=32)
    sim = GPUSimulator(cfg, "RCC-WO", program_traces(cfg, {
        (0, 0): lease_write_loop(40),
        (1, 0): lease_write_loop(40, block_b=30 * 128),
    }), "rollover")
    res = sim.run()
    assert res.mem_ops > 0
    for l1 in sim.proto.l1s:
        assert l1.write_clock.value <= cfg.ts.max_timestamp


def test_wide_timestamps_never_roll_over():
    cfg = GPUConfig.small().replace(n_cores=2, warps_per_core=2)
    sim = GPUSimulator(cfg, "RCC", program_traces(cfg, {
        (0, 0): lease_write_loop(30),
    }), "no-rollover")
    res = sim.run()
    assert res.rollovers == 0


def short_mshr_cfg():
    """Two L2 MSHRs per bank queue requests across rollovers, and 8-bit
    timestamps with 32-cycle leases roll over every few hundred cycles."""
    cfg = GPUConfig.small()
    return cfg.replace(
        l2_per_bank=dataclasses.replace(cfg.l2_per_bank, mshr_entries=2),
        ts=dataclasses.replace(cfg.ts, bits=8, lease_max=32,
                               lease_default=32),
        max_cycles=300_000)


@pytest.mark.parametrize("protocol,seed",
                         [("RCC", 1), ("RCC", 3), ("RCC-WO", 4)])
def test_request_queued_across_rollover_does_not_livelock(protocol, seed):
    """A request that waited out a rollover carries a stale-epoch ``now``
    that must count as zero when the bank decides whether to roll over
    again; read unclamped, it sits in the guard band and restarts a
    rollover at every presentation until ``max_cycles`` is hit."""
    cfg = short_mshr_cfg()
    wl = get_workload("kmn", intensity=0.5, seed=seed)
    res = run_simulation(cfg, protocol, wl.generate(cfg), "kmn",
                         sanitize=True)
    assert res.rollovers >= 1
    assert res.cycles < 50_000


class TestStormRegime:
    """The hostile lab's rollover storm (tiny width + write-heavy) at
    lease boundaries, run through the same narrow configs as the unit
    tests above."""

    @staticmethod
    def _storm(cfg, intensity=1.0, seed=7, **knobs):
        from repro.workloads import get_workload
        spec = "storm" + ("" if not knobs else ":" + ",".join(
            f"{k}={v}" for k, v in sorted(knobs.items())))
        return get_workload(spec, intensity=intensity, seed=seed).generate(cfg)

    def test_storm_forces_rollovers_and_completes(self):
        cfg = narrow_cfg(bits=10, lease=64)
        res = run_simulation(cfg, "RCC", self._storm(cfg), "storm")
        assert res.rollovers >= 1
        # Every warp's full trace retired: 4 warps x 48 iterations, each
        # contributing 1 (store) to 2 (load+store) ops.
        assert res.mem_ops >= 4 * 48

    def test_storm_sanitized_across_widths(self):
        # The storm under the invariant sanitizer at several widths near
        # the regime's mutation range, including the narrowest allowed.
        for bits in (10, 12):
            cfg = narrow_cfg(bits=bits, lease=64)
            res = run_simulation(cfg, "RCC", self._storm(cfg), "storm",
                                 sanitize=True)
            assert res.mem_ops > 0

    def test_storm_clocks_clamped_after_rollover(self):
        cfg = narrow_cfg(bits=10, lease=64)
        sim = GPUSimulator(cfg, "RCC", self._storm(cfg), "storm")
        res = sim.run()
        assert res.rollovers >= 1
        max_ts = cfg.ts.max_timestamp
        for l1 in sim.proto.l1s:
            assert l1.clock.value < max_ts
        for l2 in sim.proto.l2s:
            for line in l2.cache.lines():
                assert line.ver < max_ts
                assert line.exp < max_ts

    def test_storm_values_flow_on_private_escalators(self):
        # Each warp's escalator block is private, so under SC its final
        # load must observe that warp's own latest store — across however
        # many rollovers the storm forced.
        from repro.workloads.base import BLOCK
        from repro.workloads.hostile.storm import STORM_COL
        cfg = narrow_cfg(bits=10, lease=64)
        # p_remote=0 makes the trace pure escalator (load, store) pairs.
        sim = GPUSimulator(cfg, "RCC", self._storm(cfg, p_remote=0.0),
                           "storm", record_ops=True)
        res = sim.run()
        assert res.rollovers >= 1
        checked = 0
        for core in range(cfg.n_cores):
            for warp in range(cfg.warps_per_core):
                gid = core * cfg.warps_per_core + warp
                addr = (STORM_COL + gid) * BLOCK
                ops = sorted((op for op in res.op_logs
                              if op.addr == addr and op.core_id == core),
                             key=lambda o: o.issue_cycle)
                last_written = None
                for op in ops:
                    if op.kind.name == "STORE":
                        last_written = op.value
                    elif last_written is not None:
                        # Every load after the first store must see the
                        # warp's own latest write (private block => sole
                        # writer), whatever epoch the clocks are in.
                        assert op.read_value == last_written
                        checked += 1
        assert checked > 0

    def test_store_serializes_at_post_lease_edge(self):
        # RCC rule 3's exact boundary: a store to a freshly leased block
        # must version itself at post_lease(exp) == exp + 1 — strictly
        # past the lease end, never equal to it.
        cfg = narrow_cfg(bits=12, lease=64)
        sim = GPUSimulator(cfg, "RCC", program_traces(cfg, {
            (0, 0): [load_op(5 * 128), store_op(5 * 128)],
        }), "post-lease-edge")
        sim.run()
        lines = [line for l2 in sim.proto.l2s
                 for line in l2.cache.lines() if line.addr == 5 * 128]
        assert len(lines) == 1
        line = lines[0]
        assert line.ver == line.exp + 1

    def test_storm_post_lease_jumps_drive_the_climb(self):
        # The escalator's whole mechanism is the post_lease jump: with
        # stores jumping to exp+1 and a fresh 64-tick lease per load, one
        # warp's clock climbs ~a lease per (load, store) pair, so a
        # 10-bit clock must roll over within ~16 pairs x 4 warps.
        cfg = narrow_cfg(bits=10, lease=64)
        res = run_simulation(cfg, "RCC",
                             self._storm(cfg, p_remote=0.0), "storm")
        assert res.rollovers >= 2


class TestRolloverManagerUnit:
    def test_threshold(self):
        mgr = RolloverManager(Engine(), threshold=1000)
        assert not mgr.needs_rollover(999)
        assert mgr.needs_rollover(1000)

    def test_clamp_by_epoch(self):
        mgr = RolloverManager(Engine(), threshold=1000)
        assert mgr.clamp(55, msg_epoch=0) == 55
        mgr.epoch += 1
        assert mgr.clamp(55, msg_epoch=0) == 0
        assert mgr.clamp(55, msg_epoch=1) == 55
        assert mgr.clamp(None, msg_epoch=1) == 0

    def test_concurrent_trigger_collapses(self):
        eng = Engine()
        mgr = RolloverManager(eng, threshold=10)
        mgr.wire([], [], [])
        assert mgr.maybe_trigger(50, bank_id=1)
        assert mgr.in_progress
        # A second bank triggering while in progress defers, no new rollover.
        assert mgr.maybe_trigger(60, bank_id=0)
        assert mgr.rollovers == 1
        eng.run()
        assert not mgr.in_progress
        assert mgr.epoch == 1
