"""Tests for the protocol registry and SimResult derived metrics."""

import pytest

from repro.coherence.registry import VIRTUAL_CHANNELS, build_protocol
from repro.common.addresses import AddressMap
from repro.config import GPUConfig
from repro.errors import ConfigError
from repro.mem.dram import DRAMPartition
from repro.noc.crossbar import Crossbar
from repro.timing.engine import Engine


def wire(name, cfg=None):
    cfg = cfg or GPUConfig.small()
    engine = Engine()
    amap = AddressMap(cfg.l1.block_bytes, cfg.l2_banks)
    noc = Crossbar(engine, cfg.noc, cfg.l1.block_bytes)
    drams = [DRAMPartition(engine, cfg.dram, j) for j in range(cfg.l2_banks)]
    return build_protocol(name, engine, cfg, noc, amap, drams, {})


@pytest.mark.parametrize("name", list(VIRTUAL_CHANNELS))
def test_build_every_protocol(name):
    cfg = GPUConfig.small()
    inst = wire(name, cfg)
    assert len(inst.l1s) == cfg.n_cores
    assert len(inst.l2s) == cfg.l2_banks
    assert inst.virtual_channels == VIRTUAL_CHANNELS[name]
    assert inst.consistency in ("sc", "wo")


def test_unknown_protocol_rejected():
    with pytest.raises(ConfigError):
        wire("MOESI")


def test_rcc_controllers_share_rollover_manager():
    inst = wire("RCC")
    mgrs = {id(l1.rollover) for l1 in inst.l1s}
    mgrs |= {id(l2.rollover) for l2 in inst.l2s}
    assert len(mgrs) == 1
    assert inst.rollover is not None


def test_mesi_has_five_vcs_timestamp_protocols_two():
    assert VIRTUAL_CHANNELS["MESI"] == 5
    assert VIRTUAL_CHANNELS["RCC"] == 2
    assert VIRTUAL_CHANNELS["TCS"] == 2
    assert VIRTUAL_CHANNELS["TCW"] == 2


class TestSimResultMetrics:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.sim.gpusim import run_simulation
        from repro.workloads import get_workload
        cfg = GPUConfig.small()
        wl = get_workload("dlb", intensity=0.2)
        return run_simulation(cfg, "RCC", wl.generate(cfg), "dlb")

    def test_ipc_proxy(self, result):
        assert result.ipc_proxy == pytest.approx(
            1000 * result.mem_ops / result.cycles)

    def test_latency_fractions_bounded(self, result):
        assert 0 <= result.sc_stall_fraction <= 1
        assert 0 <= result.sc_stall_store_fraction <= 1
        assert 0 <= result.l1_expired_fraction <= 1
        assert 0 <= result.renewable_fraction <= 1

    def test_energy_positive_and_decomposed(self, result):
        e = result.energy
        assert e.total == pytest.approx(
            e.router_dynamic + e.link_dynamic + e.static)
        assert e.total > 0

    def test_traffic_groups_cover_all_flits(self, result):
        assert sum(result.traffic_groups.values()) == result.total_flits

    def test_dram_saw_traffic(self, result):
        assert result.dram_reads > 0

    def test_events_fired_in_result_payload(self, result):
        payload = result.to_payload()
        assert payload["payload_version"] >= 2
        assert payload["events_fired"] == result.events_fired > 0
