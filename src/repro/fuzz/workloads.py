"""Workload-knob fuzzing: the hostile-lab campaign driver.

Where the litmus fuzzer mutates *programs*, this mode mutates *workload
knobs*: each run draws one point from a hostile regime's knob/timestamp
space (:meth:`HostileRegime.sample_cell_inputs`), names it as an ordinary
:class:`~repro.exec.cells.SimCell` (knobs ride in the workload spec
string, machine conditions in ``ts_overrides``), and executes it through
the existing :class:`~repro.exec.engine.SweepExecutor` with the
coherence sanitizer armed. The hunt is for two failure classes:

* **invariant violations** — the sanitizer fires mid-simulation; and
* **performance cliffs** — simulator throughput (events/s) collapsing
  below, or SC stall cycles per memory op blowing up above, the medians
  of the benign reference.

The benign reference is five ordinary cells (:data:`BENIGN_CELLS`) that
every campaign runs in the same ``executor.map`` call and through the
same sanitized worker as its hostile draws. Both sides therefore run on
one host, in one process tree, under one sanitizer, so their events/s
compare directly with no calibration and no stored number.

Both failure classes are archived as replayable ``.cell`` reproducers
(see :mod:`repro.fuzz.cellfile`) suitable for checking into
``tests/corpus/``.

Cliff thresholds are deliberately loose (default 8x down on throughput,
20x up on stalls vs the benign median): hostile workloads are *supposed*
to be slower — the lab flags collapse, not degradation.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.coherence.registry import available_protocols
from repro.config import GPUConfig, named_config
from repro.errors import ConfigError, InvariantViolation, ReproError
from repro.exec.cells import SimCell, canonical_overrides, derive_seed, \
    run_cell
from repro.exec.engine import SweepExecutor
from repro.settings import Settings
from repro.workloads.hostile import HostileRegime, select_regimes

CAMPAIGN_SCHEMA = 1

#: Protocols a campaign sweeps by default: every timing protocol family
#: (SC-IDEAL is excluded — an idealized machine has no cliffs to find).
DEFAULT_PROTOCOLS = ("MESI", "TCS", "TCW", "RCC", "RCC-WO")

#: The benign reference: one Table IV cell per timing protocol family
#: (both timestamp designs), run on the small machine at the harness
#: intensity 0.25 and seed 1234 whatever the campaign's own config.
BENIGN_CELLS = tuple(
    SimCell(cfg=GPUConfig.small(), protocol=p, workload=w)
    for p, w in (("MESI", "bfs"), ("TCS", "dlb"), ("TCW", "lud"),
                 ("RCC", "bfs"), ("RCC-WO", "stn")))

#: Intensity ladder mutation draws cycle through; hostile behavior often
#: only shows at scale, but every run must stay unit-test sized.
_INTENSITIES = (0.25, 0.5, 1.0)


def _execute_hostile(cell: SimCell,
                     run: Callable[..., Any] = run_cell) -> Dict[str, Any]:
    """Worker: run one hostile cell, sanitized, fold failures into the record.

    Violations and simulator errors are *results* of a fuzz campaign, not
    infrastructure failures, so they are caught here inside the worker —
    returning a record instead of raising keeps the executor's
    retry/HarnessError machinery out of the loop and the record picklable
    across the fork boundary.
    """
    t0 = time.perf_counter()
    try:
        res = run(cell, sanitize=True)
    except InvariantViolation as exc:
        return {"status": "violation", "wall_s": time.perf_counter() - t0,
                "message": f"{type(exc).__name__}: {exc}"}
    except ReproError as exc:
        return {"status": "error", "wall_s": time.perf_counter() - t0,
                "message": f"{type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - t0
    return {
        "status": "ok",
        "wall_s": round(wall, 6),
        "message": "",
        "events": res.events_fired,
        "cycles": res.cycles,
        "mem_ops": res.mem_ops,
        "sc_stall_cycles": res.sc_stall_cycles,
        "rollovers": res.rollovers,
        "events_per_s": round(res.events_fired / wall, 1) if wall > 0
        else 0.0,
    }


@dataclass
class HostileRun:
    """One executed (regime, protocol, mutated cell) point."""

    regime: str
    cell: SimCell
    config_name: str
    record: Dict[str, Any]
    #: Cliff reasons attached during analysis (empty = within band).
    cliffs: List[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        return self.record["status"]

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def stall_per_op(self) -> float:
        ops = self.record.get("mem_ops") or 0
        return self.record.get("sc_stall_cycles", 0) / ops if ops else 0.0

    def to_json(self) -> Dict[str, Any]:
        doc = {
            "regime": self.regime,
            "config": self.config_name,
            "protocol": self.cell.protocol,
            "workload": self.cell.workload,
            "intensity": self.cell.intensity,
            "seed": self.cell.seed,
            "ts_overrides": [[k, v] for k, v in self.cell.ts_overrides],
            "cliffs": list(self.cliffs),
        }
        doc.update(self.record)
        if self.ok:
            doc["stall_per_op"] = round(self.stall_per_op, 3)
        return doc


@dataclass
class HostileCampaignResult:
    """Everything one ``repro-fuzz --workloads`` campaign produced."""

    config_name: str
    runs: List[HostileRun]
    #: The benign cells, run beside the hostile draws; cliffs are judged
    #: against their medians.
    reference: List[HostileRun]
    cliff_ratio: float
    stall_factor: float
    #: False when the campaign ran parallel and wall-clock throughput
    #: was therefore not judged (stall cliffs were still checked).
    throughput_judged: bool = True

    def _reference_median(self, metric: Callable[[HostileRun], float]
                          ) -> Optional[float]:
        values = [metric(r) for r in self.reference if r.ok]
        return statistics.median(values) if values else None

    @property
    def reference_events_per_s(self) -> Optional[float]:
        return self._reference_median(lambda r: r.record["events_per_s"])

    @property
    def reference_stall_per_op(self) -> Optional[float]:
        median = self._reference_median(lambda r: r.stall_per_op)
        return None if median is None else round(median, 3)

    @property
    def violations(self) -> List[HostileRun]:
        return [r for r in self.reference + self.runs
                if r.status == "violation"]

    @property
    def errors(self) -> List[HostileRun]:
        return [r for r in self.reference + self.runs
                if r.status == "error"]

    @property
    def cliff_runs(self) -> List[HostileRun]:
        return [r for r in self.runs if r.ok and r.cliffs]

    @property
    def passed(self) -> bool:
        """Violations and simulator errors, benign cells' included, fail
        a campaign; cliffs are report-only unless the caller opts in
        (``--fail-on-cliff``)."""
        return not self.violations and not self.errors

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": CAMPAIGN_SCHEMA,
            "kind": "hostile-campaign",
            "config": self.config_name,
            "reference": {
                "cells": {r.cell.label: r.record for r in self.reference},
                "events_per_s_median": self.reference_events_per_s,
                "stall_cycles_per_op_median": self.reference_stall_per_op,
                "cliff_ratio": self.cliff_ratio,
                "stall_factor": self.stall_factor,
                "throughput_judged": self.throughput_judged,
            },
            "totals": {
                "runs": len(self.runs),
                "violations": len(self.violations),
                "errors": len(self.errors),
                "cliffs": len(self.cliff_runs),
            },
            "runs": [r.to_json() for r in self.runs],
        }

    def render(self) -> str:
        by_regime: Dict[str, int] = {}
        for r in self.runs:
            by_regime[r.regime] = by_regime.get(r.regime, 0) + 1
        lines = [
            f"[hostile campaign: {len(self.runs)} runs over "
            f"{len(by_regime)} regimes ("
            + ", ".join(f"{k}:{v}" for k, v in sorted(by_regime.items()))
            + f"), {len(self.violations)} violations, "
            f"{len(self.errors)} errors, {len(self.cliff_runs)} cliffs]"
        ]
        if not self.throughput_judged:
            lines.append("  note: parallel campaign — wall-clock "
                         "throughput not judged (rerun with --jobs 1 "
                         "for cliff detection); stall cliffs checked")
        eps, stall = self.reference_events_per_s, self.reference_stall_per_op
        if eps is not None:
            lines.append(
                f"  reference: {len(self.reference)} benign cells, "
                f"events/s median {eps:.0f} (cliff below "
                f"{self.cliff_ratio:g}x), stall/op median {stall:.3f} "
                f"(cliff above {self.stall_factor:g}x)")
        for r in self.reference + self.runs:
            if r.status != "ok":
                lines.append(f"  {r.status.upper()} {r.regime} "
                             f"{r.cell.label} seed={r.cell.seed}: "
                             f"{r.record['message']}")
        for r in self.cliff_runs:
            lines.append(f"  CLIFF {r.regime} {r.cell.label} "
                         f"seed={r.cell.seed}")
            for reason in r.cliffs:
                lines.append(f"    {reason}")
        return "\n".join(lines)


def plan_cells(regimes: Sequence[HostileRegime], runs: int, seed: int,
               cfg: GPUConfig, protocols: Sequence[str]
               ) -> List[Tuple[HostileRegime, SimCell]]:
    """The campaign grid: ``runs`` mutation draws round-robined across
    regimes, each paired with a protocol and intensity from the ladder.

    Draw ``i`` is fully determined by ``(seed, regime, i)`` — the knob
    sample, the protocol, and the cell seed all derive from it — so a
    campaign is reproducible from its command line alone. Draw 0 of each
    regime is the *unmutated* center point, guaranteeing the five
    canonical regimes themselves are always covered.
    """
    import random

    planned: List[Tuple[HostileRegime, SimCell]] = []
    for i in range(runs):
        regime = regimes[i % len(regimes)]
        draw = i // len(regimes)
        rng = random.Random(derive_seed(seed, "hostile", regime.name, draw))
        if draw == 0:
            spec, ts = regime.default_cell_inputs()
        else:
            spec, ts = regime.sample_cell_inputs(rng)
        protocol = protocols[rng.randrange(len(protocols))]
        intensity = _INTENSITIES[rng.randrange(len(_INTENSITIES))]
        cell = SimCell(cfg=cfg, protocol=protocol, workload=spec,
                       intensity=intensity,
                       seed=derive_seed(seed, "cell", regime.name, draw),
                       ts_overrides=canonical_overrides(ts))
        planned.append((regime, cell))
    return planned


def _attach_cliffs(result: HostileCampaignResult) -> None:
    """Mark throughput/stall cliffs on each ok hostile run, in place.

    A parallel campaign (``throughput_judged`` false) skips throughput
    cliffs: its workers share the CPU, so one cell's events/s depends on
    what ran beside it. Stall cliffs still apply, being deterministic
    simulated-machine quantities that no host load can touch.
    """
    eps_med = result.reference_events_per_s \
        if result.throughput_judged else None
    stall_med = result.reference_stall_per_op
    for r in result.runs:
        if not r.ok:
            continue
        eps = r.record.get("events_per_s") or 0.0
        if eps_med is not None and 0 < eps < eps_med * result.cliff_ratio:
            r.cliffs.append(
                f"throughput cliff: {eps:.0f} events/s is "
                f"{eps_med / eps:.1f}x below the benign median "
                f"{eps_med:.0f} (threshold {result.cliff_ratio:g}x)")
        if stall_med and r.stall_per_op > stall_med * result.stall_factor:
            r.cliffs.append(
                f"stall cliff: {r.stall_per_op:.1f} SC stall cycles "
                f"per op vs reference median {stall_med:.2f} "
                f"(threshold {result.stall_factor:g}x)")


def run_hostile_campaign(
        config_name: str = "small",
        regimes: str = "all",
        runs: int = 10,
        seed: int = 0,
        protocols: Sequence[str] = DEFAULT_PROTOCOLS,
        cliff_ratio: float = 1 / 8,
        stall_factor: float = 20.0,
        executor: Optional[SweepExecutor] = None,
        on_run: Optional[Callable[[int, "HostileRun"], None]] = None,
) -> HostileCampaignResult:
    """Run one workload-knob fuzz campaign; see the module docstring.

    The benign reference cells run first, then the hostile draws, in one
    ``executor.map`` call. Every cell executes with invariant checking
    on, whatever the executor's settings; the default executor takes the
    environment's settings but runs serially, so throughput cliffs can be
    judged. An unknown regime or protocol raises before any cell runs.
    """
    regime_list = select_regimes(regimes)
    known = available_protocols()
    for name in protocols:
        if name not in known:
            raise ConfigError(
                f"unknown protocol {name!r}; choose from {known}")
    cfg = named_config(config_name)
    planned = plan_cells(regime_list, runs, seed, cfg, protocols)
    executor = executor or SweepExecutor(replace(Settings.from_env(), jobs=1))

    records = executor.map(
        functools.partial(_execute_hostile, run=executor.run_cell),
        list(BENIGN_CELLS) + [cell for _, cell in planned],
        labels=[f"benign:{cell.label}" for cell in BENIGN_CELLS]
        + [f"{reg.name}:{cell.label}" for reg, cell in planned])

    n_ref = len(BENIGN_CELLS)
    result = HostileCampaignResult(
        config_name=config_name,
        runs=[HostileRun(regime=reg.name, cell=cell,
                         config_name=config_name, record=record)
              for (reg, cell), record in zip(planned, records[n_ref:])],
        reference=[HostileRun(regime="benign", cell=cell,
                              config_name="small", record=record)
                   for cell, record in zip(BENIGN_CELLS, records)],
        cliff_ratio=cliff_ratio, stall_factor=stall_factor,
        throughput_judged=executor.settings.jobs <= 1)
    _attach_cliffs(result)
    if on_run:
        for i, r in enumerate(result.runs):
            on_run(i, r)
    return result
