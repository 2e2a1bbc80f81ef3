"""Sweep execution engine: parallel cells + content-keyed result cache.

See :mod:`repro.exec.engine` for the scheduling policy and
:mod:`repro.exec.cache` for the on-disk cache layout.
"""

from repro.exec.cache import DEFAULT_CACHE_DIR, ResultCache, payload_digest
from repro.exec.cells import (
    SimCell, canonical_overrides, cell_key, derive_seed, run_cell,
    sweep_cells,
)
from repro.exec.engine import MAX_ATTEMPTS, SweepExecutor, SweepStats

__all__ = [
    "DEFAULT_CACHE_DIR",
    "MAX_ATTEMPTS",
    "ResultCache",
    "SimCell",
    "SweepExecutor",
    "SweepStats",
    "canonical_overrides",
    "cell_key",
    "derive_seed",
    "payload_digest",
    "run_cell",
    "sweep_cells",
]
