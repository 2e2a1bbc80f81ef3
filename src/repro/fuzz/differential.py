"""Differential execution: one program, every protocol, two validators.

For each generated program the runner executes every registered protocol
(RCC, RCC-WO, MESI, TCS, TCW, SC-IDEAL — plus any executor injected for
testing) and validates each run two independent ways:

* protocols that claim SC go through the **witness checker**
  (:class:`~repro.consistency.checker.SCChecker`, timestamps + arrival
  keys) *and* the **interleaving oracle**
  (:mod:`repro.fuzz.oracle`, pure architectural values);
* weakly-ordered protocols are executed for completion (a deadlock or
  simulator error on any protocol fails the program) and their outcomes
  are run through the oracle *informationally* — how often a WO run
  happens to be SC-explainable is a useful tell, but not a failure.

A campaign sweeps many seeded programs, tallies per-protocol results into
an :class:`~repro.harness.experiments.ExperimentResult`-compatible report,
and on failure shrinks the program to a minimal reproducer (see
:mod:`repro.fuzz.shrink`) for the corpus.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.coherence.registry import available_protocols
from repro.config import GPUConfig, consistency_of
from repro.consistency.checker import SCChecker, Violation
from repro.errors import ReproError
from repro.fuzz.generator import FuzzKnobs, FuzzProgram, generate_program
from repro.fuzz.oracle import (
    Observation, OracleExhausted, observation_from_records, sc_explainable,
)
from repro.harness.experiments import ExperimentResult
from repro.sim.gpusim import run_simulation
from repro.stats import Histogram


@dataclass
class ExecutionOutcome:
    """One executor's result for one program."""

    executor: str
    sc: bool
    error: Optional[str] = None
    cycles: int = 0
    observation: Optional[Observation] = None
    records: Optional[List[Any]] = field(default=None, repr=False)
    checker_violations: List[Violation] = field(default_factory=list)
    #: True/False once the oracle ran; None if skipped or exhausted.
    oracle_verdict: Optional[bool] = None
    oracle_exhausted: bool = False

    @property
    def failure_reasons(self) -> List[str]:
        """Reasons this outcome fails the differential check (empty for a
        pass). WO executors only fail on execution errors."""
        reasons: List[str] = []
        if self.error:
            reasons.append(f"execution error: {self.error}")
        if self.sc:
            if self.checker_violations:
                first = self.checker_violations[0]
                reasons.append(
                    f"witness checker: {len(self.checker_violations)} "
                    f"violation(s), first {first!r}")
            if self.oracle_verdict is False:
                reasons.append(
                    "oracle: no SC interleaving explains the observation")
        return reasons


class ProtocolExecutor:
    """Runs programs under one registered coherence protocol via the full
    cycle-accurate simulator."""

    def __init__(self, protocol: str, cfg: Optional[GPUConfig] = None,
                 sanitize: bool = False, trace_out: Optional[str] = None):
        self.name = protocol
        self.protocol = protocol
        self.sc = consistency_of(protocol) == "sc"
        self.base_cfg = cfg or GPUConfig.small()
        self.block_bytes = self.base_cfg.l1.block_bytes
        self.sanitize = sanitize
        self.trace_out = trace_out

    def _shape_cfg(self, program: FuzzProgram) -> GPUConfig:
        """Trim (or grow) the machine to the program's warp grid so tiny
        programs simulate in microseconds."""
        return self.base_cfg.replace(
            n_cores=max(1, program.n_cores),
            warps_per_core=max(1, program.warps_per_core))

    def execute(self, program: FuzzProgram) -> ExecutionOutcome:
        cfg = self._shape_cfg(program)
        try:
            # An InvariantViolation surfaces as an execution error, so a
            # sanitized campaign fails on the program that triggered it.
            res = run_simulation(cfg, self.protocol, program.to_traces(cfg),
                                 workload_name=program.name, record_ops=True,
                                 sanitize=self.sanitize,
                                 trace_out=self.trace_out)
        except ReproError as exc:
            return ExecutionOutcome(executor=self.name, sc=self.sc,
                                    error=f"{type(exc).__name__}: {exc}")
        obs = observation_from_records(program, res.op_logs,
                                       res.final_memory,
                                       block_bytes=cfg.l1.block_bytes)
        return ExecutionOutcome(executor=self.name, sc=self.sc,
                                cycles=res.cycles, observation=obs,
                                records=res.op_logs)


@dataclass
class ProgramVerdict:
    """All executors' outcomes for one program."""

    program: FuzzProgram
    outcomes: Dict[str, ExecutionOutcome]

    @property
    def failures(self) -> List[str]:
        """Flat ``executor: reason`` strings; empty means the program
        passed differential checking."""
        out: List[str] = []
        for name in sorted(self.outcomes):
            for reason in self.outcomes[name].failure_reasons:
                out.append(f"{name}: {reason}")
        return out

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        lines = [f"program {self.program.name} "
                 f"({self.program.n_ops} ops, "
                 f"{len(self.program.warps)} warps, "
                 f"{self.program.n_addrs} addrs)"]
        lines.append(self.program.pretty())
        if self.passed:
            lines.append("PASS under all executors")
        else:
            lines.extend(f"FAIL {f}" for f in self.failures)
        return "\n".join(lines)


class DifferentialRunner:
    """Executes programs under a set of executors and cross-checks."""

    def __init__(self, cfg: Optional[GPUConfig] = None,
                 protocols: Optional[Sequence[str]] = None,
                 executors: Optional[Sequence[Any]] = None,
                 oracle_max_states: int = 500_000,
                 oracle_on_wo: bool = True,
                 sanitize: bool = False,
                 trace_out: Optional[str] = None):
        if executors is None:
            names = list(protocols) if protocols else available_protocols()
            executors = [ProtocolExecutor(p, cfg, sanitize=sanitize,
                                          trace_out=trace_out)
                         for p in names]
        self.executors = list(executors)
        self.oracle_max_states = oracle_max_states
        self.oracle_on_wo = oracle_on_wo

    def check_program(self, program: FuzzProgram) -> ProgramVerdict:
        outcomes: Dict[str, ExecutionOutcome] = {}
        for ex in self.executors:
            out = ex.execute(program)
            if out.observation is not None:
                if out.sc and out.records is not None:
                    bb = getattr(ex, "block_bytes", 128)
                    out.checker_violations = SCChecker(bb).check(out.records)
                if out.sc or self.oracle_on_wo:
                    try:
                        out.oracle_verdict = sc_explainable(
                            program, out.observation,
                            max_states=self.oracle_max_states)
                    except OracleExhausted:
                        out.oracle_exhausted = True
            outcomes[ex.name] = out
        return ProgramVerdict(program=program, outcomes=outcomes)


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------

@dataclass
class ExecutorTally:
    """Per-executor accumulators over a campaign."""

    name: str
    sc: bool
    runs: int = 0
    errors: int = 0
    witness_failures: int = 0
    oracle_failures: int = 0
    oracle_exhausted: int = 0
    #: WO only: runs whose outcome happened to be SC-explainable anyway.
    sc_explainable_runs: int = 0
    cycles: Histogram = field(default_factory=Histogram)

    def add(self, out: ExecutionOutcome) -> None:
        self.runs += 1
        if out.error:
            self.errors += 1
        if out.checker_violations:
            self.witness_failures += 1
        if out.oracle_exhausted:
            self.oracle_exhausted += 1
        if out.oracle_verdict is False and out.sc:
            self.oracle_failures += 1
        if out.oracle_verdict is True and not out.sc:
            self.sc_explainable_runs += 1
        if out.cycles:
            self.cycles.add(out.cycles)

    @property
    def sc_violations(self) -> int:
        """Programs on which this executor failed an SC requirement."""
        if not self.sc:
            return 0
        return self.witness_failures + self.oracle_failures


@dataclass
class FailureReport:
    """One failing program, before and after shrinking."""

    program: FuzzProgram
    reasons: List[str]
    shrunk: Optional[FuzzProgram] = None
    shrunk_reasons: List[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [f"failing program {self.program.name}:",
                 self.program.pretty()]
        lines.extend(f"  {r}" for r in self.reasons)
        if self.shrunk is not None:
            lines.append(f"shrunk to {self.shrunk.n_ops} ops:")
            lines.append(self.shrunk.pretty())
            lines.extend(f"  {r}" for r in self.shrunk_reasons)
        return "\n".join(lines)


class CampaignResult:
    """Aggregated result of one fuzz campaign."""

    def __init__(self, seed: int, n_programs: int, knobs: FuzzKnobs):
        self.seed = seed
        self.n_programs = n_programs
        self.knobs = knobs
        self.programs_run = 0
        self.programs_failed = 0
        self.tallies: Dict[str, ExecutorTally] = {}
        self.failures: List[FailureReport] = []
        self.elapsed = 0.0

    @property
    def sc_violations(self) -> int:
        return sum(t.sc_violations for t in self.tallies.values())

    @property
    def passed(self) -> bool:
        return self.programs_failed == 0

    def add_verdict(self, verdict: ProgramVerdict) -> None:
        self.programs_run += 1
        if not verdict.passed:
            self.programs_failed += 1
        for name, out in verdict.outcomes.items():
            tally = self.tallies.get(name)
            if tally is None:
                tally = self.tallies[name] = ExecutorTally(name, out.sc)
            tally.add(out)

    # ------------------------------------------------------------------
    def as_experiment(self) -> ExperimentResult:
        """Report the campaign like any harness experiment."""
        exp = ExperimentResult(
            "fuzz",
            f"Differential fuzz campaign - seed {self.seed}, "
            f"{self.programs_run} programs "
            f"({self.knobs.n_cores}x{self.knobs.warps_per_core} warps, "
            f"{self.knobs.ops_per_warp} ops, {self.knobs.n_addrs} addrs, "
            f"fence density {self.knobs.fence_density})",
            ["executor", "model", "runs", "errors", "witness_fail",
             "oracle_fail", "oracle_exh", "sc_like(wo)", "avg_cycles"],
        )
        for name in sorted(self.tallies):
            t = self.tallies[name]
            exp.add_row(name, "sc" if t.sc else "wo", t.runs, t.errors,
                        t.witness_failures if t.sc else "-",
                        t.oracle_failures if t.sc else "-",
                        t.oracle_exhausted,
                        "-" if t.sc else t.sc_explainable_runs,
                        t.cycles.mean)
        exp.claim("SC protocols show no SC violation on random programs",
                  "0 violations (RCC/TCS/MESI implement SC)",
                  f"{self.sc_violations} violation(s) over "
                  f"{self.programs_run} programs", self.sc_violations == 0)
        if self.failures:
            for f in self.failures[:3]:
                exp.notes.append(f.describe())
        return exp

    def render(self) -> str:
        out = [self.as_experiment().render()]
        out.append(f"[{self.programs_run} programs in {self.elapsed:.1f}s; "
                   f"{self.programs_failed} failing]")
        return "\n".join(out)


def _check_one(args) -> ProgramVerdict:
    """Campaign worker: generate and check program ``i`` (module level so
    the sweep executor can ship it to worker processes)."""
    runner, seed_i, knobs = args
    return runner.check_program(generate_program(seed_i, knobs))


def run_campaign(runner: DifferentialRunner, seed: int, n_programs: int,
                 knobs: Optional[FuzzKnobs] = None,
                 shrink: bool = True,
                 max_shrinks: int = 5,
                 shrink_attempts: int = 300,
                 on_program: Optional[Callable[[int, ProgramVerdict], None]]
                 = None,
                 executor: Optional[Any] = None) -> CampaignResult:
    """Generate and differentially check ``n_programs`` programs seeded
    ``seed .. seed+n_programs-1``; shrink up to ``max_shrinks`` failures.

    With a parallel :class:`~repro.exec.SweepExecutor` (``jobs > 1``) the
    per-program checks fan out over worker processes; each program's seed
    is fixed by its index, so the verdicts — and therefore the campaign
    tallies and failure reports — are identical to a serial run.
    Shrinking always happens in the parent (it is a sequential search).

    Serial runs stream: each verdict is checked, tallied and dropped in
    turn, so the nightly 2000-program campaigns never hold every verdict
    at once.
    """
    from repro.fuzz.shrink import shrink_program

    knobs = knobs or FuzzKnobs()
    result = CampaignResult(seed, n_programs, knobs)
    t0 = time.time()
    if executor is not None and executor.settings.jobs > 1:
        verdicts: Any = executor.map(
            _check_one, [(runner, seed + i, knobs)
                         for i in range(n_programs)],
            labels=[f"program[{seed + i}]" for i in range(n_programs)])
    else:
        verdicts = (runner.check_program(generate_program(seed + i, knobs))
                    for i in range(n_programs))
    for i, verdict in enumerate(verdicts):
        result.add_verdict(verdict)
        if on_program is not None:
            on_program(i, verdict)
        if verdict.passed:
            continue
        report = FailureReport(program=verdict.program,
                               reasons=verdict.failures)
        if shrink and len(result.failures) < max_shrinks:
            def still_fails(p: FuzzProgram) -> bool:
                return not runner.check_program(p).passed

            report.shrunk = shrink_program(verdict.program, still_fails,
                                           max_attempts=shrink_attempts)
            report.shrunk_reasons = \
                runner.check_program(report.shrunk).failures
        result.failures.append(report)
    result.elapsed = time.time() - t0
    return result
