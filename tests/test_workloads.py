"""Tests for the synthetic workload generators."""

import pytest

from repro.common.types import MemOpKind
from repro.config import GPUConfig
from repro.errors import ConfigError
from repro.workloads import (
    WORKLOADS, get_workload, inter_workgroup, intra_workgroup,
)
from repro.workloads.base import BLOCK


@pytest.fixture(scope="module")
def gen_cfg():
    return GPUConfig.small()


def test_registry_has_all_twelve():
    assert len(WORKLOADS) == 12
    assert set(inter_workgroup()) == {"bh", "bfs", "cl", "dlb", "stn", "vpr"}
    assert set(intra_workgroup()) == {"hsp", "kmn", "lps", "ndl", "sr", "lud"}


def test_unknown_workload_raises():
    with pytest.raises(ConfigError):
        get_workload("nonsense")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shapes_match_config(gen_cfg, name):
    wl = get_workload(name, intensity=0.2)
    traces = wl.generate(gen_cfg)
    assert len(traces) == gen_cfg.n_cores
    for core_traces in traces:
        assert len(core_traces) == gen_cfg.warps_per_core
        for t in core_traces:
            assert t.n_mem_ops > 0
            t.validate()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_deterministic_under_seed(gen_cfg, name):
    a = get_workload(name, intensity=0.2, seed=5).generate(gen_cfg)
    b = get_workload(name, intensity=0.2, seed=5).generate(gen_cfg)
    for ca, cb in zip(a, b):
        for ta, tb in zip(ca, cb):
            assert ta.ops == tb.ops


@pytest.mark.parametrize("name", ["bh", "bfs", "vpr", "dlb"])
def test_different_seeds_differ(gen_cfg, name):
    a = get_workload(name, intensity=0.3, seed=1).generate(gen_cfg)
    b = get_workload(name, intensity=0.3, seed=2).generate(gen_cfg)
    assert any(ta.ops != tb.ops
               for ca, cb in zip(a, b)
               for ta, tb in zip(ca, cb))


def _touched_blocks(traces, kinds):
    out = [set() for _ in traces]
    for c, core_traces in enumerate(traces):
        for t in core_traces:
            for op_ in t.ops:
                if op_.kind in kinds:
                    out[c].add(op_.addr // BLOCK)
    return out


@pytest.mark.parametrize("name", sorted(intra_workgroup()))
def test_intra_workloads_have_no_cross_core_sharing(gen_cfg, name):
    """Intra-workgroup benchmarks must be correct without coherence:
    no block is touched by two different cores."""
    wl = get_workload(name, intensity=0.3)
    traces = wl.generate(gen_cfg)
    mem_kinds = {MemOpKind.LOAD, MemOpKind.STORE, MemOpKind.ATOMIC}
    per_core = _touched_blocks(traces, mem_kinds)
    for i in range(len(per_core)):
        for j in range(i + 1, len(per_core)):
            assert not (per_core[i] & per_core[j]), (
                f"{name}: cores {i} and {j} share blocks")


@pytest.mark.parametrize("name", sorted(inter_workgroup()))
def test_inter_workloads_share_written_data_across_cores(gen_cfg, name):
    """Inter-workgroup benchmarks must have at least one block written by
    one core and read/written by another."""
    wl = get_workload(name, intensity=0.5)
    traces = wl.generate(gen_cfg)
    writes = _touched_blocks(traces, {MemOpKind.STORE, MemOpKind.ATOMIC})
    touches = _touched_blocks(
        traces, {MemOpKind.LOAD, MemOpKind.STORE, MemOpKind.ATOMIC})
    shared_rw = False
    for i in range(len(writes)):
        for j in range(len(touches)):
            if i != j and (writes[i] & touches[j]):
                shared_rw = True
    assert shared_rw, f"{name} has no inter-core read-write sharing"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_intensity_scales_length(gen_cfg, name):
    short = get_workload(name, intensity=0.2).generate(gen_cfg)
    long = get_workload(name, intensity=1.0).generate(gen_cfg)
    assert sum(t.n_mem_ops for ct in long for t in ct) > \
        sum(t.n_mem_ops for ct in short for t in ct)


def test_category_metadata():
    for name, cls in WORKLOADS.items():
        assert cls.category in ("inter", "intra")
        assert cls.description
        assert cls.name == name


def test_dlb_steals_are_rare_but_present():
    cfg = GPUConfig.small()
    wl = get_workload("dlb", intensity=2.0)
    traces = wl.generate(cfg)
    # Count atomics touching other cores' queue control blocks.
    from repro.workloads.interwg.dlb import QUEUE_BASE
    steals = own = 0
    for c, core_traces in enumerate(traces):
        for t in core_traces:
            for op_ in t.ops:
                if op_.kind is MemOpKind.ATOMIC:
                    q = op_.addr // BLOCK - QUEUE_BASE
                    if 0 <= q < cfg.n_cores:
                        if q == c:
                            own += 1
                        else:
                            steals += 1
    assert steals > 0
    assert steals < own / 4  # stealing is rare (the paper's point)
