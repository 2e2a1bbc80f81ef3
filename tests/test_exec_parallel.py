"""Serial-vs-parallel equivalence battery for the sweep executor.

The whole point of ``repro.exec`` is that ``--jobs N`` is a pure
wall-clock optimization: every experiment must produce row-for-row
identical tables, claims, and notes whether its cells ran serially
in-process or fanned out over worker processes — and two parallel runs
with the same seed must be identical to each other. These tests pin that
contract for every experiment id, for the differential fuzz campaign,
and for the CLI's ``--report`` output at the byte level.
"""

from __future__ import annotations

import pytest

from repro.config import GPUConfig
from repro.exec import SweepExecutor, derive_seed, sweep_cells
from repro.fuzz import DifferentialRunner, run_campaign
from repro.harness.experiments import ALL_EXPERIMENTS, Harness
from repro.harness import runner as runner_cli
from tests.conftest import env_settings

INTENSITY = 0.1
SEED = 99
FUZZ_PROGRAMS = 6

#: Experiments whose cells are simulations; ``fuzz`` is exercised
#: separately (its unit of work is a program, not a sweep cell).
SIM_EXPERIMENTS = [n for n in ALL_EXPERIMENTS if n != "fuzz"]


def make_harness(jobs: int) -> Harness:
    return Harness(cfg=GPUConfig.small(), intensity=INTENSITY, seed=SEED,
                   executor=SweepExecutor(env_settings(jobs=jobs)))


def run_experiment(harness: Harness, name: str):
    if name == "fuzz":
        return harness.fuzz(n_programs=FUZZ_PROGRAMS)
    return getattr(harness, ALL_EXPERIMENTS[name])()


def table_of(exp) -> dict:
    """Everything an ExperimentResult reports, as comparable data."""
    return {
        "name": exp.name,
        "title": exp.title,
        "columns": exp.columns,
        "rows": exp.rows,
        "claims": exp.claims,
        "notes": exp.notes,
    }


@pytest.fixture(scope="module")
def serial_tables():
    harness = make_harness(jobs=1)
    return {name: table_of(run_experiment(harness, name))
            for name in ALL_EXPERIMENTS}


@pytest.fixture(scope="module")
def parallel_tables():
    harness = make_harness(jobs=4)
    return {name: table_of(run_experiment(harness, name))
            for name in ALL_EXPERIMENTS}


@pytest.mark.parametrize("name", list(ALL_EXPERIMENTS))
def test_jobs4_matches_serial_row_for_row(name, serial_tables,
                                          parallel_tables):
    """--jobs 4 reproduces the serial tables exactly: same rows (cells
    and float values), same paper-vs-measured claims, same notes."""
    assert parallel_tables[name] == serial_tables[name]


def test_two_parallel_runs_identical(serial_tables):
    """Two parallel runs with the same seed agree with each other (and
    with serial) — scheduling order must never leak into results."""
    again = make_harness(jobs=4)
    for name in ("fig7", "fig9"):
        assert table_of(run_experiment(again, name)) == serial_tables[name]


def test_executor_payloads_identical_across_modes():
    """Below the experiment layer: the raw SimResult payloads coming back
    from worker processes are byte-equivalent to in-process ones."""
    cells = sweep_cells(GPUConfig.small(), ["RCC", "MESI"], ["dlb", "bfs"],
                        INTENSITY, SEED)
    serial = SweepExecutor(env_settings(jobs=1)).run_cells(cells)
    parallel = SweepExecutor(env_settings(jobs=4)).run_cells(cells)
    assert ([r.to_payload() for r in serial]
            == [r.to_payload() for r in parallel])


def test_fuzz_campaign_parallel_equivalent():
    """The differential fuzz campaign tallies identically when programs
    are checked in worker processes."""
    def campaign(executor):
        runner = DifferentialRunner(cfg=GPUConfig.small(),
                                    protocols=["RCC", "TCW"])
        return run_campaign(runner, seed=5, n_programs=FUZZ_PROGRAMS,
                            executor=executor)

    serial = campaign(None)
    parallel = campaign(SweepExecutor(env_settings(jobs=2)))
    assert table_of(serial.as_experiment()) \
        == table_of(parallel.as_experiment())
    assert serial.programs_failed == parallel.programs_failed


def test_report_byte_identical_and_cache_warm(tmp_path):
    """Acceptance: the CLI's --report output is byte-identical between
    serial, parallel, and cache-warm parallel invocations."""
    argv = ["fig6", "table1", "--quick", "--seed", "7"]
    serial_md = tmp_path / "serial.md"
    par_md = tmp_path / "par.md"
    warm_md = tmp_path / "warm.md"
    cache_dir = str(tmp_path / "cache")

    assert runner_cli.main(argv + ["--no-cache",
                                   "--report", str(serial_md)]) == 0
    assert runner_cli.main(argv + ["--jobs", "4", "--cache-dir", cache_dir,
                                   "--report", str(par_md)]) == 0
    assert runner_cli.main(argv + ["--jobs", "4", "--cache-dir", cache_dir,
                                   "--report", str(warm_md)]) == 0
    assert serial_md.read_bytes() == par_md.read_bytes()
    assert serial_md.read_bytes() == warm_md.read_bytes()


def test_derive_seed_stable_and_distinct():
    """Per-cell seed derivation is deterministic across processes (no
    hash salting) and separates cells."""
    assert derive_seed(1234, "RCC", "bfs") == derive_seed(1234, "RCC", "bfs")
    seeds = {derive_seed(1234, p, w)
             for p in ("RCC", "MESI") for w in ("bfs", "dlb")}
    assert len(seeds) == 4
    assert all(0 <= s < 2 ** 63 for s in seeds)


@pytest.mark.parametrize("samples,p,want", [
    ([1, 2], 50, 1),
    (list(range(1, 11)), 50, 5),
    ([3, 1, 2], 50, 2),
    ([7.5], 50, 7.5),
    ([7.5], 95, 7.5),
    (list(range(20, 0, -1)), 95, 19),
    (list(range(1, 101)), 95, 95),
])
def test_sweep_summary_percentile_is_nearest_rank(samples, p, want):
    """The ``[sweep: ...]`` line's p50/p95: the smallest sample with at
    least ``p`` percent of the samples at or below it."""
    from repro.exec.engine import _percentile
    assert _percentile(samples, p) == want
