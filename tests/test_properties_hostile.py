"""Property battery over the hostile-workload lab.

Randomized-but-seeded draws from every hostile regime's knob space assert
the three contracts the lab leans on:

* the coherence-invariant **sanitizer stays silent** — hostility is a
  performance regime, never a correctness excuse;
* sweep execution is a pure wall-clock optimization — **serial, parallel,
  and cache-replayed runs of a hostile cell produce byte-identical
  result payloads**;
* the **SC witness agrees**: MESI, TCS, and RCC executions of the same
  hostile trace all check out sequentially consistent.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GPUConfig
from repro.consistency.checker import SCChecker
from repro.exec import SweepExecutor
from repro.exec.cache import ResultCache
from repro.exec.cells import SimCell, canonical_overrides, derive_seed
from repro.sim.gpusim import run_simulation
from repro.workloads import get_workload
from repro.workloads.hostile import REGIMES
from tests.conftest import env_settings

REGIME_NAMES = sorted(REGIMES)

#: One shared small machine; hostile generators must behave on any shape.
CFG = GPUConfig.small()


def _sampled_cell(regime_name: str, draw_seed: int, protocol: str,
                  intensity: float = 0.25) -> SimCell:
    """One seeded mutation draw from a regime, as a sweep cell."""
    import random
    regime = REGIMES[regime_name]
    rng = random.Random(derive_seed(draw_seed, "prop", regime_name))
    spec, ts = regime.sample_cell_inputs(rng)
    return SimCell(cfg=CFG, protocol=protocol, workload=spec,
                   intensity=intensity,
                   seed=derive_seed(draw_seed, "cell", regime_name),
                   ts_overrides=canonical_overrides(ts))


def _run(cell: SimCell, **kw):
    wl = get_workload(cell.workload, intensity=cell.intensity,
                      seed=cell.seed)
    return run_simulation(cell.effective_cfg(), cell.protocol,
                          wl.generate(cell.effective_cfg()),
                          cell.workload, **kw)


# ----------------------------------------------------------------------
# Sanitizer invariants hold across every regime's knob space
# ----------------------------------------------------------------------
@given(st.sampled_from(REGIME_NAMES),
       st.integers(min_value=0, max_value=10**6),
       st.sampled_from(["RCC", "MESI", "TCS"]))
@settings(max_examples=20, deadline=None)
def test_hostile_draws_run_sanitizer_clean(regime_name, draw_seed,
                                           protocol):
    cell = _sampled_cell(regime_name, draw_seed, protocol)
    res = _run(cell, sanitize=True)  # InvariantViolation would raise
    assert res.mem_ops > 0


@given(st.integers(min_value=0, max_value=10**6),
       st.sampled_from(["TCW", "RCC-WO"]))
@settings(max_examples=8, deadline=None)
def test_hostile_draws_complete_under_weak_protocols(draw_seed, protocol):
    # Weak-ordering protocols retire every op of the hostile trace too.
    cell = _sampled_cell("pingpong", draw_seed, protocol)
    wl = get_workload(cell.workload, intensity=cell.intensity,
                      seed=cell.seed)
    traces = wl.generate(cell.effective_cfg())
    expected = sum(t.n_mem_ops for ct in traces for t in ct)
    res = run_simulation(cell.effective_cfg(), cell.protocol, traces,
                         cell.workload, sanitize=True)
    assert res.mem_ops == expected


# ----------------------------------------------------------------------
# Serial / parallel / cached replay: byte-identical payloads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("regime_name", REGIME_NAMES)
def test_serial_parallel_cached_payloads_identical(regime_name, tmp_path):
    cells = [_sampled_cell(regime_name, draw, proto)
             for draw, proto in ((1, "RCC"), (2, "MESI"))]
    serial = SweepExecutor(env_settings(jobs=1)).run_cells(cells)
    parallel = SweepExecutor(env_settings(jobs=2)).run_cells(cells)
    cache = ResultCache(str(tmp_path / "cache"))
    warm_exec = SweepExecutor(env_settings(jobs=2), cache=cache)
    warm_exec.run_cells(cells)          # populate
    cached = warm_exec.run_cells(cells)  # replay from disk
    assert warm_exec.last_stats.n_cached == len(cells)
    payloads = [r.to_payload() for r in serial]
    assert [r.to_payload() for r in parallel] == payloads
    assert [r.to_payload() for r in cached] == payloads


# ----------------------------------------------------------------------
# SC-witness agreement across protocol families, per regime
# ----------------------------------------------------------------------
@pytest.mark.parametrize("regime_name", REGIME_NAMES)
@pytest.mark.parametrize("protocol", ["MESI", "TCS", "RCC"])
def test_hostile_regimes_are_sequentially_consistent(regime_name,
                                                     protocol):
    """Every hostile regime, under every SC protocol family (directory
    MESI, physical-timestamp TCS, logical-timestamp RCC), yields an
    execution the SC witness checker accepts."""
    cell = _sampled_cell(regime_name, draw_seed=3, protocol=protocol)
    res = _run(cell, record_ops=True)
    SCChecker().check_or_raise(res.op_logs)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=6, deadline=None)
def test_storm_random_draws_stay_sc_across_rollover(draw_seed):
    """The storm's whole point is rollover pressure; SC must survive the
    epoch clamp for arbitrary knob draws, not just the center point."""
    cell = _sampled_cell("storm", draw_seed, "RCC")
    res = _run(cell, record_ops=True)
    SCChecker().check_or_raise(res.op_logs)


# ----------------------------------------------------------------------
# Spec strings: the naming layer the whole lab rides on
# ----------------------------------------------------------------------
@given(st.sampled_from(REGIME_NAMES),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_sampled_specs_round_trip_and_regenerate(regime_name, draw_seed):
    """A sampled spec string reconstructs the exact same generator
    (same spec back), and the same (spec, seed, cfg) always regenerates
    an identical trace — the property the result cache depends on."""
    import random
    regime = REGIMES[regime_name]
    rng = random.Random(draw_seed)
    spec, _ = regime.sample_cell_inputs(rng)
    wl = get_workload(spec, intensity=0.25, seed=7)
    assert wl.spec == spec
    t1 = get_workload(spec, intensity=0.25, seed=7).generate(CFG)
    t2 = get_workload(spec, intensity=0.25, seed=7).generate(CFG)
    assert [[t.ops for t in ct] for ct in t1] \
        == [[t.ops for t in ct] for ct in t2]
