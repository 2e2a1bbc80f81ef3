"""Unit tests for logical clocks and the RCC lease predictor."""

import pytest

from repro.config import TimestampConfig
from repro.core.lease_policy import FixedLeasePolicy
from repro.core.timestamps import LogicalClock, timestamp_guard_band
from repro.errors import SimulationError
from repro.mem.cache_array import CacheLine
from repro.common.types import L2State


class TestLogicalClock:
    def test_monotone_advance(self):
        clk = LogicalClock(bits=16)
        assert clk.advance_to(10) == 10
        assert clk.advance_to(5) == 10
        assert clk.advance_to(11) == 11

    def test_tick_saturates(self):
        clk = LogicalClock(bits=8)
        clk.advance_to(254)
        clk.tick(10)
        assert clk.value == 255

    def test_overflow_detected(self):
        clk = LogicalClock(bits=8)
        with pytest.raises(SimulationError):
            clk.advance_to(256)

    def test_reset_bumps_epoch(self):
        clk = LogicalClock(bits=8)
        clk.advance_to(200)
        key_before = clk.global_key()
        clk.reset()
        assert clk.value == 0
        assert clk.epoch == 1
        assert clk.global_key() > key_before

    def test_guard_band_covers_one_transaction(self):
        assert timestamp_guard_band(2048) > 2 * 2048


class TestLeasePredictor:
    def make(self, enabled=True):
        cfg = TimestampConfig(predictor_enabled=enabled)
        return FixedLeasePolicy(cfg), CacheLine(0, L2State.V), cfg

    def test_initial_prediction_is_max(self):
        pred, line, cfg = self.make()
        assert pred.lease_for(line) == cfg.lease_max

    def test_write_drops_to_min(self):
        pred, line, cfg = self.make()
        pred.on_write(line)
        assert pred.lease_for(line) == cfg.lease_min

    def test_renew_doubles(self):
        pred, line, cfg = self.make()
        pred.on_write(line)
        pred.on_renew(line)
        assert pred.lease_for(line) == 2 * cfg.lease_min
        pred.on_renew(line)
        assert pred.lease_for(line) == 4 * cfg.lease_min

    def test_renew_capped_at_max(self):
        pred, line, cfg = self.make()
        for _ in range(40):
            pred.on_renew(line)
        assert pred.lease_for(line) == cfg.lease_max

    def test_disabled_predictor_uses_default(self):
        pred, line, cfg = self.make(enabled=False)
        pred.on_write(line)
        pred.on_renew(line)
        assert pred.lease_for(line) == cfg.lease_default

    def test_prediction_lost_with_line(self):
        """The prediction lives in line.meta: a fresh line (e.g. after L2
        eviction + refetch) restarts at the maximum, as the paper intends
        for streaming blocks."""
        pred, line, cfg = self.make()
        pred.on_write(line)
        fresh = CacheLine(line.addr, L2State.V)
        assert pred.lease_for(fresh) == cfg.lease_max
