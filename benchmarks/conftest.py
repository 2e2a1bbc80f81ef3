"""Shared fixtures for the figure-regeneration benchmarks.

Each benchmark file regenerates one of the paper's tables or figures with
pytest-benchmark timing the full experiment, then asserts the qualitative
*shape* the paper reports (who wins, in which direction). One shared
harness instance caches simulation runs within a session so each figure's
benchmark measures its own incremental work.

The harness routes all simulations through the sweep executor
(:mod:`repro.exec`): set ``RCC_JOBS=N`` to fan independent cells out over
N worker processes, and ``RCC_CACHE_DIR=path`` to replay unchanged cells
from the on-disk result cache — results are identical either way, only
the wall clock moves.

Intensity is kept low so the full suite finishes in minutes; pass
``--benchmark-only`` as usual. For paper-scale runs use the CLI
(``rcc-repro all --intensity 1.0 --jobs 4``).
"""

import pytest

from repro.config import GPUConfig
from repro.exec import ResultCache, SweepExecutor
from repro.harness.experiments import Harness
from repro.settings import Settings

BENCH_INTENSITY = 0.15


@pytest.fixture(scope="session")
def harness() -> Harness:
    settings = Settings.from_env()
    executor = SweepExecutor(
        settings,
        cache=ResultCache(settings.cache_dir) if settings.cache_dir else None)
    return Harness(cfg=GPUConfig.bench(), intensity=BENCH_INTENSITY,
                   executor=executor)


def run_once(benchmark, fn):
    """Time one full regeneration of an experiment (no warmup rounds —
    a single run is minutes-scale work, and results are cached anyway)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
