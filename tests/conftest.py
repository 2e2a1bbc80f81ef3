"""Shared fixtures and trace-building helpers for the test suite."""

from __future__ import annotations

import dataclasses
from typing import Any

import pytest

from repro.config import GPUConfig
from repro.exec import SimCell, run_cell
from repro.gpu.trace import WarpTrace
from repro.settings import Settings
from repro.sim.gpusim import run_simulation
from repro.sim.results import SimResult

#: The run settings of the environment the suite runs in. Tests build
#: their executors from them and run cells with them, so ``RCC_SANITIZE=1``
#: checks every simulation the suite runs through the sweep layer, as it
#: does in a CLI run.
ENV = Settings.from_env()


def env_settings(**changes: Any) -> Settings:
    """:data:`ENV` with ``changes`` (e.g. ``jobs=2``) laid over it."""
    return dataclasses.replace(ENV, **changes)


def env_run_cell(cell: SimCell) -> SimResult:
    """:func:`run_cell` with :data:`ENV`'s sanitizer settings."""
    return run_cell(cell, ENV.sanitize, ENV.trace_out)

#: All protocols, and the subsets most tests sweep.
ALL_PROTOCOLS = ["MESI", "TCS", "TCW", "RCC", "RCC-WO", "SC-IDEAL"]
SC_PROTOCOLS = ["MESI", "TCS", "RCC", "SC-IDEAL"]
WO_PROTOCOLS = ["TCW", "RCC-WO"]


@pytest.fixture
def small_cfg() -> GPUConfig:
    return GPUConfig.small()


@pytest.fixture
def tiny_cfg() -> GPUConfig:
    """Two cores, two warps: the smallest interesting machine."""
    cfg = GPUConfig.small()
    return cfg.replace(n_cores=2, warps_per_core=2)


def empty_traces(cfg: GPUConfig):
    """A trace grid of the right shape with no ops."""
    return [[WarpTrace(c, w) for w in range(cfg.warps_per_core)]
            for c in range(cfg.n_cores)]


def program_traces(cfg: GPUConfig, programs):
    """Build traces from {(core, warp): [ops...]}."""
    traces = empty_traces(cfg)
    for (core, warp), ops in programs.items():
        traces[core][warp].extend(ops)
    return traces


def run_program(cfg: GPUConfig, protocol: str, programs, **kw):
    """Run a {(core, warp): [ops]} program and return the SimResult."""
    return run_simulation(cfg, protocol, program_traces(cfg, programs),
                          workload_name="test", **kw)
