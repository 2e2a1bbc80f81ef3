"""Workload-knob fuzzing: the hostile-lab campaign driver.

Where the litmus fuzzer mutates *programs*, this mode mutates *workload
knobs*: each run draws one point from a hostile regime's knob/timestamp
space (:meth:`HostileRegime.sample_cell_inputs`), names it as an ordinary
:class:`~repro.exec.cells.SimCell` (knobs ride in the workload spec
string, machine conditions in ``ts_overrides``), and executes it through
the existing :class:`~repro.exec.engine.SweepExecutor` with the
coherence sanitizer armed. The hunt is for two failure classes, and
either fails the campaign:

* **invariant violations** — the sanitizer fires mid-simulation; and
* **simulator errors** — a deadlock, a clock overflow, any other
  :class:`~repro.errors.ReproError`.

Both are archived as replayable ``.cell`` reproducers (see
:mod:`repro.fuzz.cellfile`) suitable for checking into ``tests/corpus/``.
Speed is not judged here: ``bench/`` is the yardstick for that.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.coherence.registry import available_protocols
from repro.config import GPUConfig, named_config
from repro.errors import ConfigError, InvariantViolation, ReproError
from repro.exec.cells import SimCell, canonical_overrides, derive_seed, \
    run_cell
from repro.exec.engine import SweepExecutor
from repro.workloads.hostile import HostileRegime, select_regimes

CAMPAIGN_SCHEMA = 1

#: Protocols a campaign sweeps by default: every protocol a real machine
#: could build. SC-IDEAL is left out: its instant, message-free
#: invalidations are a modelling bound with no protocol races to provoke.
DEFAULT_PROTOCOLS = ("MESI", "TCS", "TCW", "RCC", "RCC-WO")

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
    try:
        res = run(cell, sanitize=True)
    except InvariantViolation as exc:
        return {"status": "violation",
                "message": f"{type(exc).__name__}: {exc}"}
    except ReproError as exc:
        return {"status": "error",
                "message": f"{type(exc).__name__}: {exc}"}
    return {
        "status": "ok",
        "message": "",
        "events": res.events_fired,
        "cycles": res.cycles,
        "mem_ops": res.mem_ops,
        "sc_stall_cycles": res.sc_stall_cycles,
        "rollovers": res.rollovers,
    }


@dataclass
class HostileRun:
    """One executed (regime, protocol, mutated cell) point."""

    regime: str
    cell: SimCell
    config_name: str
    record: Dict[str, Any]

    @property
    def status(self) -> str:
        return self.record["status"]

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> Dict[str, Any]:
        doc = {
            "regime": self.regime,
            "config": self.config_name,
            "protocol": self.cell.protocol,
            "workload": self.cell.workload,
            "intensity": self.cell.intensity,
            "seed": self.cell.seed,
            "ts_overrides": [[k, v] for k, v in self.cell.ts_overrides],
        }
        doc.update(self.record)
        return doc


@dataclass
class HostileCampaignResult:
    """Everything one ``repro-fuzz --workloads`` campaign produced."""

    config_name: str
    runs: List[HostileRun]

    @property
    def violations(self) -> List[HostileRun]:
        return [r for r in self.runs if r.status == "violation"]

    @property
    def errors(self) -> List[HostileRun]:
        return [r for r in self.runs if r.status == "error"]

    @property
    def passed(self) -> bool:
        """Violations and simulator errors fail a campaign."""
        return not self.violations and not self.errors

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": CAMPAIGN_SCHEMA,
            "kind": "hostile-campaign",
            "config": self.config_name,
            "totals": {
                "runs": len(self.runs),
                "violations": len(self.violations),
                "errors": len(self.errors),
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
            f"{len(self.errors)} errors]"
        ]
        for r in self.runs:
            if not r.ok:
                lines.append(f"  {r.status.upper()} {r.regime} "
                             f"{r.cell.label} seed={r.cell.seed}: "
                             f"{r.record['message']}")
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


def run_hostile_campaign(
        config_name: str = "small",
        regimes: str = "all",
        runs: int = 10,
        seed: int = 0,
        protocols: Sequence[str] = DEFAULT_PROTOCOLS,
        executor: Optional[SweepExecutor] = None,
        on_run: Optional[Callable[[int, "HostileRun"], None]] = None,
) -> HostileCampaignResult:
    """Run one workload-knob fuzz campaign; see the module docstring.

    The draws run in one ``executor.map`` call (by default a
    :class:`SweepExecutor` on the environment's settings). Every cell
    executes with invariant checking on, whatever the executor's
    settings. An unknown regime or protocol raises before any cell runs.
    """
    regime_list = select_regimes(regimes)
    known = available_protocols()
    for name in protocols:
        if name not in known:
            raise ConfigError(
                f"unknown protocol {name!r}; choose from {known}")
    cfg = named_config(config_name)
    planned = plan_cells(regime_list, runs, seed, cfg, protocols)
    executor = executor or SweepExecutor()

    records = executor.map(
        functools.partial(_execute_hostile, run=executor.run_cell),
        [cell for _, cell in planned],
        labels=[f"{reg.name}:{cell.label}" for reg, cell in planned])

    result = HostileCampaignResult(
        config_name=config_name,
        runs=[HostileRun(regime=reg.name, cell=cell,
                         config_name=config_name, record=record)
              for (reg, cell), record in zip(planned, records)])
    if on_run:
        for i, r in enumerate(result.runs):
            on_run(i, r)
    return result
