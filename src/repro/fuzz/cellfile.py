"""Corpus cell files: replayable hostile-run reproducers.

The litmus corpus (``*.trace``) pins *programs*; the hostile lab's unit
of reproduction is a *cell* — (named config, protocol, workload spec,
intensity, seed, ts overrides) — so invariant violations and simulator
errors it discovers are archived as ``*.cell`` JSON files next to the
traces in ``tests/corpus/``. A cell file names its base machine by canned-config
name (``small``/``bench``/``paper``) rather than serializing the whole
config, keeping reproducers readable and robust as the config schema
evolves.

Replaying a cell re-runs the exact simulation under the sanitizer and
checks the recorded expectations: zero invariant violations, and the
``mem_ops`` count (a pure function of the trace, stable across timing
changes — unlike cycles, which later engine work may legitimately move).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.config import GPUConfig, TimestampConfig, named_config
from repro.errors import ReproError
from repro.exec.cells import SimCell, canonical_overrides
from repro.sim.gpusim import run_simulation
from repro.workloads import get_workload

CELL_SCHEMA = 1


def cell_to_json(cell: SimCell, config_name: str, reason: str = "",
                 expect: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The JSON document a ``.cell`` file holds."""
    return {
        "schema": CELL_SCHEMA,
        "kind": "hostile-cell",
        "config": config_name,
        "protocol": cell.protocol,
        "workload": cell.workload,
        "intensity": cell.intensity,
        "seed": cell.seed,
        "ts_overrides": [[k, v] for k, v in sorted(cell.ts_overrides)],
        "reason": reason,
        "expect": expect or {},
    }


def save_cell(path: str, cell: SimCell, config_name: str,
              reason: str = "",
              expect: Optional[Dict[str, Any]] = None) -> None:
    with open(path, "w") as fh:
        json.dump(cell_to_json(cell, config_name, reason, expect), fh,
                  indent=2, sort_keys=True)
        fh.write("\n")


def load_cell(path: str) -> Tuple[SimCell, Dict[str, Any]]:
    """Rebuild (cell, metadata) from a ``.cell`` file.

    Every override must name a :class:`~repro.config.TimestampConfig`
    field. Files written while the L2 could run other lease policies may
    carry a top-level ``lease_policy``: ``"fixed"`` was the paper's
    predictor, which every cell now runs, and any other policy is refused
    rather than replayed under a rule it was not found under.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != CELL_SCHEMA or doc.get("kind") != "hostile-cell":
        raise ReproError(
            f"{path}: not a v{CELL_SCHEMA} hostile-cell file "
            f"(schema={doc.get('schema')!r}, kind={doc.get('kind')!r})")
    cfg: GPUConfig = named_config(doc["config"])
    policy = doc.get("lease_policy", "fixed")
    if policy != "fixed":
        raise ReproError(
            f"{path}: found under lease policy {policy!r}; only the "
            "paper's predictor ('fixed') can be replayed")
    overrides = {k: v for k, v in doc.get("ts_overrides", [])}
    fields = {f.name for f in dataclasses.fields(TimestampConfig)}
    for key in overrides:
        if key not in fields:
            raise ReproError(
                f"{path}: ts_overrides names {key!r}, which is not a "
                "TimestampConfig field")
    cell = SimCell(
        cfg=cfg,
        protocol=doc["protocol"],
        workload=doc["workload"],
        intensity=float(doc["intensity"]),
        seed=int(doc["seed"]),
        ts_overrides=canonical_overrides(overrides),
    )
    return cell, doc


@dataclass
class CellReplay:
    """Outcome of replaying one corpus cell."""

    path: str
    cell: Optional[SimCell] = None
    reasons: List[str] = field(default_factory=list)
    mem_ops: int = 0
    cycles: int = 0

    @property
    def passed(self) -> bool:
        return not self.reasons

    def describe(self) -> str:
        head = "PASS" if self.passed else "FAIL"
        label = self.cell.label if self.cell is not None else "?"
        line = f"{head} {self.path} ({label})"
        for reason in self.reasons:
            line += f"\n  {reason}"
        return line


def replay_cell(path: str) -> CellReplay:
    """Re-run one cell under the sanitizer and check its expectations."""
    replay = CellReplay(path=path)
    try:
        cell, doc = load_cell(path)
    except (ReproError, OSError, ValueError, KeyError) as exc:
        replay.reasons.append(f"unreadable cell: {type(exc).__name__}: {exc}")
        return replay
    replay.cell = cell
    cfg = cell.effective_cfg()
    wl = get_workload(cell.workload, intensity=cell.intensity,
                      seed=cell.seed)
    try:
        res = run_simulation(cfg, cell.protocol, wl.generate(cfg),
                             cell.workload, sanitize=True)
    except ReproError as exc:
        replay.reasons.append(f"{type(exc).__name__}: {exc}")
        return replay
    replay.mem_ops = res.mem_ops
    replay.cycles = res.cycles
    expect = doc.get("expect") or {}
    if "mem_ops" in expect and res.mem_ops != expect["mem_ops"]:
        replay.reasons.append(
            f"mem_ops drifted: expected {expect['mem_ops']}, "
            f"got {res.mem_ops} (the workload generator changed under "
            "this corpus entry)")
    return replay


def cell_files(directory: str) -> List[str]:
    """All cell entries (``*.cell``) in ``directory``, sorted."""
    return sorted(
        os.path.join(directory, fn) for fn in os.listdir(directory)
        if fn.endswith(".cell"))
