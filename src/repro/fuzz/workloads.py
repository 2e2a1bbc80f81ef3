"""Workload-knob fuzzing: the hostile-lab campaign driver.

Where the litmus fuzzer mutates *programs*, this mode mutates *workload
knobs*: each run draws one point from a hostile regime's knob/timestamp
space (:meth:`HostileRegime.sample_cell_inputs`), names it as an ordinary
:class:`~repro.exec.cells.SimCell` (knobs ride in the workload spec
string, machine conditions in ``ts_overrides``), and executes it through
the existing :class:`~repro.exec.engine.SweepExecutor` with the
coherence sanitizer armed. The hunt is for two failure classes:

* **invariant violations** — the sanitizer fires mid-simulation; and
* **performance cliffs** — calibration-normalized simulator throughput
  (events/s) collapsing below, or SC stall cycles per memory op blowing
  up above, what ``benchmarks/perf_baseline.json`` says this host
  sustains on the benign suite.

Both are archived as replayable ``.cell`` reproducers (see
:mod:`repro.fuzz.cellfile`) suitable for checking into ``tests/corpus/``.

Cliff thresholds are deliberately loose (default 8x down on throughput,
20x up on stalls vs the benign median): hostile workloads are *supposed*
to be slower — the lab flags collapse, not degradation.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import GPUConfig, named_config
from repro.errors import InvariantViolation, ReproError
from repro.exec.cells import SimCell, canonical_overrides, derive_seed, \
    run_cell
from repro.exec.engine import SweepExecutor
from repro.perf.bench import calibrate
from repro.settings import Settings
from repro.workloads.hostile import HostileRegime, select_regimes

CAMPAIGN_SCHEMA = 1

#: Protocols a campaign sweeps by default: every timing protocol family
#: (SC-IDEAL is excluded — an idealized machine has no cliffs to find).
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
    calibration: float
    baseline_path: Optional[str]
    baseline_norm_median: Optional[float]
    baseline_stall_median: Optional[float]
    cliff_ratio: float
    stall_factor: float
    #: False when the campaign ran parallel and wall-clock throughput
    #: was therefore not judged (stall cliffs were still checked).
    throughput_judged: bool = True

    @property
    def violations(self) -> List[HostileRun]:
        return [r for r in self.runs if r.status == "violation"]

    @property
    def errors(self) -> List[HostileRun]:
        return [r for r in self.runs if r.status == "error"]

    @property
    def cliff_runs(self) -> List[HostileRun]:
        return [r for r in self.runs if r.ok and r.cliffs]

    @property
    def passed(self) -> bool:
        """Violations and simulator errors fail a campaign; cliffs are
        report-only unless the caller opts in (``--fail-on-cliff``)."""
        return not self.violations and not self.errors

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": CAMPAIGN_SCHEMA,
            "kind": "hostile-campaign",
            "config": self.config_name,
            "calibration_loops_per_s": round(self.calibration, 1),
            "baseline": {
                "path": self.baseline_path,
                "events_per_s_normalized_median": self.baseline_norm_median,
                "stall_cycles_per_op_median": self.baseline_stall_median,
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
        if self.baseline_norm_median is not None:
            lines.append(
                f"  baseline: normalized events/s median "
                f"{self.baseline_norm_median:.6f} (cliff below "
                f"{self.cliff_ratio:g}x), stall/op median "
                f"{self.baseline_stall_median if self.baseline_stall_median is not None else 0:.3f}"
                f" (cliff above {self.stall_factor:g}x)")
        else:
            lines.append("  baseline: none loaded; stall cliffs judged "
                         "against the campaign's own per-protocol medians")
        for r in self.runs:
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


def load_baseline(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _baseline_medians(baseline: Optional[Dict[str, Any]]
                      ) -> Tuple[Optional[float], Optional[float]]:
    """(normalized events/s median, stall-cycles-per-op median) from a
    perf baseline report; each is ``None`` if the field set is absent
    (pre-stall-field baselines lack the second)."""
    if not baseline:
        return None, None
    cells = baseline.get("cells", {})
    norms = [c["events_per_s_normalized"] for c in cells.values()
             if c.get("events_per_s_normalized")]
    stalls = [c["stall_cycles_per_op"] for c in cells.values()
              if "stall_cycles_per_op" in c]
    return (statistics.median(norms) if norms else None,
            statistics.median(stalls) if stalls else None)


def plan_cells(regimes: Sequence[HostileRegime], runs: int, seed: int,
               cfg: GPUConfig, protocols: Sequence[str],
               ts_pins: Optional[Dict[str, Any]] = None
               ) -> List[Tuple[HostileRegime, SimCell]]:
    """The campaign grid: ``runs`` mutation draws round-robined across
    regimes, each paired with a protocol and intensity from the ladder.

    Draw ``i`` is fully determined by ``(seed, regime, i)`` — the knob
    sample, the protocol, and the cell seed all derive from it — so a
    campaign is reproducible from its command line alone. Draw 0 of each
    regime is the *unmutated* center point, guaranteeing the five
    canonical regimes themselves are always covered.

    ``ts_pins`` force timestamp fields on every planned cell *after* the
    mutation draw (``--lease-policy`` pins the policy campaign-wide this
    way); the draw stream itself is unaffected, so a pinned campaign
    visits the same knob points as an unpinned one.
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
        if ts_pins:
            ts.update(ts_pins)
        protocol = protocols[rng.randrange(len(protocols))]
        intensity = _INTENSITIES[rng.randrange(len(_INTENSITIES))]
        cell = SimCell(cfg=cfg, protocol=protocol, workload=spec,
                       intensity=intensity,
                       seed=derive_seed(seed, "cell", regime.name, draw),
                       ts_overrides=canonical_overrides(ts))
        planned.append((regime, cell))
    return planned


def _attach_cliffs(result: HostileCampaignResult,
                   trust_wall_clock: bool = True) -> None:
    """Mark throughput/stall cliffs on each ok run, in place.

    With ``trust_wall_clock=False`` (a parallel campaign: workers share
    the CPU while calibration ran alone, deflating measured events/s by
    roughly the jobs count) throughput cliffs are skipped entirely —
    stall cliffs still apply, being deterministic simulated-machine
    quantities that no host-load skew can touch.
    """
    norm_med = result.baseline_norm_median if trust_wall_clock else None
    stall_med = result.baseline_stall_median
    ok_runs = [r for r in result.runs if r.ok]
    if stall_med is None and ok_runs:
        # Grid-median fallback: without baseline stall data, judge each
        # run against its own protocol's median across the campaign (a
        # cliff is then a knob point far outside its protocol's norm).
        per_proto: Dict[str, List[float]] = {}
        for r in ok_runs:
            per_proto.setdefault(r.cell.protocol, []).append(r.stall_per_op)
        proto_medians = {p: statistics.median(v)
                         for p, v in per_proto.items()}
    else:
        proto_medians = {}
    for r in ok_runs:
        wall = r.record.get("wall_s") or 0.0
        events = r.record.get("events") or 0
        norm = (events / wall / result.calibration) if wall > 0 else 0.0
        r.record["events_per_s_normalized"] = round(norm, 6)
        if norm_med is not None and norm > 0:
            floor = norm_med * result.cliff_ratio
            if norm < floor:
                r.cliffs.append(
                    f"throughput cliff: normalized events/s {norm:.6f} is "
                    f"{norm_med / norm:.1f}x below the benign-suite median "
                    f"{norm_med:.6f} (threshold {result.cliff_ratio:g}x)")
        ref_stall = stall_med if stall_med is not None \
            else proto_medians.get(r.cell.protocol)
        if ref_stall is not None and ref_stall > 0:
            ceiling = ref_stall * result.stall_factor
            if r.stall_per_op > ceiling:
                r.cliffs.append(
                    f"stall cliff: {r.stall_per_op:.1f} SC stall cycles "
                    f"per op vs reference median {ref_stall:.2f} "
                    f"(threshold {result.stall_factor:g}x)")


def run_hostile_campaign(
        config_name: str = "small",
        regimes: str = "all",
        runs: int = 10,
        seed: int = 0,
        protocols: Sequence[str] = DEFAULT_PROTOCOLS,
        baseline_path: Optional[str] = None,
        cliff_ratio: float = 1 / 8,
        stall_factor: float = 20.0,
        executor: Optional[SweepExecutor] = None,
        calibration: Optional[float] = None,
        on_run: Optional[Callable[[int, "HostileRun"], None]] = None,
        lease_policy: Optional[str] = None,
) -> HostileCampaignResult:
    """Run one workload-knob fuzz campaign; see the module docstring.

    Every hostile run executes with invariant checking on, whatever the
    executor's settings; the default executor takes the environment's
    settings but runs serially, so throughput cliffs can be judged.
    ``lease_policy`` pins one policy on every run (otherwise each draw
    samples a policy from the regime's ``ts_choices``).
    """
    regime_list = select_regimes(regimes)
    cfg = named_config(config_name)
    ts_pins = {"lease_policy": lease_policy} if lease_policy else None
    planned = plan_cells(regime_list, runs, seed, cfg, protocols, ts_pins)
    executor = executor or SweepExecutor(replace(Settings.from_env(), jobs=1))
    if calibration is None:
        calibration = calibrate()

    records = executor.map(
        functools.partial(_execute_hostile, run=executor.run_cell),
        [cell for _, cell in planned],
        labels=[f"{reg.name}:{cell.label}" for reg, cell in planned],
        meta={"campaign": "hostile-workloads", "config": config_name,
              "regimes": regimes, "runs": runs, "seed": seed,
              "protocols": list(protocols),
              "lease_policy": lease_policy})

    hostile_runs = [
        HostileRun(regime=reg.name, cell=cell, config_name=config_name,
                   record=record)
        for (reg, cell), record in zip(planned, records)
    ]
    baseline = load_baseline(baseline_path) if baseline_path else None
    norm_med, stall_med = _baseline_medians(baseline)
    result = HostileCampaignResult(
        config_name=config_name, runs=hostile_runs,
        calibration=calibration,
        baseline_path=baseline_path if baseline else None,
        baseline_norm_median=norm_med, baseline_stall_median=stall_med,
        cliff_ratio=cliff_ratio, stall_factor=stall_factor,
        throughput_judged=executor.settings.jobs <= 1)
    _attach_cliffs(result, trust_wall_clock=result.throughput_judged)
    if on_run:
        for i, r in enumerate(result.runs):
            on_run(i, r)
    return result
