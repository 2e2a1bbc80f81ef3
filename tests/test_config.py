"""Unit tests for configuration validation and canned configs."""

import pytest

from repro.config import (
    GPUConfig, CacheConfig, TimestampConfig, PROTOCOLS, consistency_of,
)
from repro.errors import ConfigError


def test_paper_config_matches_table_iii():
    cfg = GPUConfig.paper()
    cfg.validate()
    assert cfg.n_cores == 16
    assert cfg.warps_per_core == 48
    assert cfg.l1.size_bytes == 32 * 1024
    assert cfg.l1.assoc == 4
    assert cfg.l1.block_bytes == 128
    assert cfg.l2_banks == 8
    assert cfg.l2_per_bank.size_bytes == 128 * 1024
    assert cfg.l2_min_round_trip == 340
    assert cfg.dram.min_latency == 460
    assert cfg.ts.bits == 32
    assert cfg.ts.lease_min == 8
    assert cfg.ts.lease_max == 2048


def test_small_and_bench_validate():
    GPUConfig.small().validate()
    GPUConfig.bench().validate()


def test_replace_returns_copy():
    cfg = GPUConfig.small()
    cfg2 = cfg.replace(n_cores=2)
    assert cfg.n_cores == 4
    assert cfg2.n_cores == 2


def test_consistency_of_known_protocols():
    assert consistency_of("RCC") == "sc"
    assert consistency_of("RCC-WO") == "wo"
    assert consistency_of("TCW") == "wo"
    assert consistency_of("MESI") == "sc"
    assert set(PROTOCOLS) == {"MESI", "TCS", "TCW", "RCC", "RCC-WO",
                              "SC-IDEAL"}


def test_consistency_of_unknown_raises():
    with pytest.raises(ConfigError):
        consistency_of("MOESI")


def test_bad_lease_bounds_rejected():
    with pytest.raises(ConfigError):
        TimestampConfig(lease_min=100, lease_default=50).validate()


def test_lease_max_must_fit_width():
    with pytest.raises(ConfigError):
        TimestampConfig(bits=10, lease_min=8, lease_default=64,
                        lease_max=2048).validate()


def test_mismatched_block_sizes_rejected():
    cfg = GPUConfig.small()
    cfg.l1 = CacheConfig(size_bytes=4096, assoc=4, block_bytes=64)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_zero_cores_rejected():
    with pytest.raises(ConfigError):
        GPUConfig.small().replace(n_cores=0).validate()


def test_wo_max_outstanding_must_be_positive():
    GPUConfig.small().replace(wo_max_outstanding=1).validate()
    with pytest.raises(ConfigError, match="wo_max_outstanding"):
        GPUConfig.small().replace(wo_max_outstanding=0).validate()
