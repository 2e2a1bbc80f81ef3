"""Sweep cells: the unit of work the sweep executor schedules.

A :class:`SimCell` is one fully-described, independent simulation —
``(GPUConfig, protocol, workload, intensity, seed, ts_overrides)`` — the
same tuple that names one bar of one figure in the paper's evaluation.
Cells are self-contained and picklable so they can be shipped to worker
processes, and content-hashable (:func:`cell_key`) so results can be
cached on disk and invalidated the moment any input changes.

``run_cell`` is the canonical worker: it performs exactly the same steps
as the serial harness always has (override timestamps, instantiate the
workload at the cell's intensity and seed, run the simulator), so a
parallel sweep is bit-identical to a serial one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.config import GPUConfig
from repro.sim.gpusim import run_simulation
from repro.sim.results import SimResult
from repro.workloads import get_workload

#: ts_overrides in canonical form: sorted (name, value) pairs.
Overrides = Tuple[Tuple[str, Any], ...]


def canonical_overrides(ts_overrides: Optional[Dict[str, Any]]) -> Overrides:
    """Normalize a ts-override dict to the sorted tuple form cells carry."""
    return tuple(sorted((ts_overrides or {}).items()))


@dataclass(frozen=True)
class SimCell:
    """One independent simulation in a sweep grid."""

    cfg: GPUConfig = field(compare=True)
    protocol: str = ""
    workload: str = ""
    intensity: float = 0.25
    seed: int = 1234
    ts_overrides: Overrides = ()

    @property
    def label(self) -> str:
        """Short human-readable name for progress/error messages."""
        suffix = "".join(f",{k}={v}" for k, v in self.ts_overrides)
        return f"{self.protocol}/{self.workload}{suffix}"

    def effective_cfg(self) -> GPUConfig:
        """The machine config with this cell's timestamp overrides applied."""
        if not self.ts_overrides:
            return self.cfg
        return self.cfg.replace(
            ts=dataclasses.replace(self.cfg.ts, **dict(self.ts_overrides)))


def cell_key(cell: SimCell, version: Optional[str] = None) -> str:
    """Content hash naming this cell's result in the on-disk cache.

    The hash covers every input that can change the result: the full
    machine configuration, the workload name and intensity, the protocol,
    the seed, the timestamp overrides, and the library version (so a code
    change invalidates the whole cache rather than replaying stale
    results).
    """
    if version is None:
        import repro
        version = repro.__version__
    blob = json.dumps(
        {
            "cfg": dataclasses.asdict(cell.cfg),
            "protocol": cell.protocol,
            "workload": cell.workload,
            "intensity": cell.intensity,
            "seed": cell.seed,
            "ts_overrides": [[k, v] for k, v in cell.ts_overrides],
            "version": version,
        },
        sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def derive_seed(base: int, *parts: Any) -> int:
    """Deterministic per-cell seed derivation.

    Hashes ``(base, *parts)`` — e.g. ``derive_seed(1234, "RCC", "bfs")`` —
    into a 63-bit seed that is stable across processes and Python runs
    (unlike ``hash()``, which is salted). Use it when a sweep needs
    statistically independent cells; the paper-figure harness instead
    reuses one base seed everywhere so that parallel sweeps reproduce the
    historical serial results exactly.
    """
    digest = hashlib.sha256(repr((base,) + parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def run_cell(cell: SimCell, sanitize: bool = False,
             trace_out: Optional[str] = None) -> SimResult:
    """Execute one cell (the executor's default worker function).

    The sanitizer settings are arguments rather than cell fields, so the
    cell key — hence the result cache — stays independent of a checking
    mode that must not change results. The sweep executor binds them
    from its :class:`~repro.settings.Settings`.
    """
    wl = get_workload(cell.workload, intensity=cell.intensity,
                      seed=cell.seed)
    cfg = cell.effective_cfg()
    return run_simulation(cfg, cell.protocol, wl.generate(cfg),
                          cell.workload, sanitize=sanitize,
                          trace_out=trace_out)


def sweep_cells(cfg: GPUConfig, protocols: Iterable[str],
                workloads: Iterable[str], intensity: float, seed: int,
                ts_overrides: Optional[Dict[str, Any]] = None
                ) -> List[SimCell]:
    """The full (protocol x workload) grid as a list of cells."""
    overrides = canonical_overrides(ts_overrides)
    return [SimCell(cfg=cfg, protocol=p, workload=w, intensity=intensity,
                    seed=seed, ts_overrides=overrides)
            for w in workloads for p in protocols]
