"""Chaos campaigns: assert the executor contract under injected faults.

Two batteries live here, both driven by ``repro-fuzz --chaos`` and the
``chaos-smoke`` CI job:

**The contract battery** (:func:`run_chaos_campaign`) runs a matrix of
seeded :class:`~repro.chaos.plan.FaultPlan` specs against the sweep
executor and asserts, for every plan, the contract the rest of the repo
relies on:

* recoverable plans (``mode=first`` faults) finish with *correct results
  in input order* — bounded retries absorb every injected fault;
* unrecoverable plans (``mode=always`` faults) surface as one structured
  :class:`~repro.errors.HarnessError` whose per-cell
  :class:`~repro.errors.CellFailure` records carry kinds from the
  ``timeout`` / ``crash`` / ``poisoned-pool`` / ``cache-corrupt`` /
  ``exception`` taxonomy — never a raw ``BrokenProcessPool``, never a
  hang, never a wrong value;
* cache-fault plans (``torn-write`` / ``bit-flip`` / ``enospc``) never
  change results: a corrupted entry is detected and recomputed, a failed
  write is swallowed, and the journal degrades to non-journaled
  execution with a surfaced warning instead of killing the campaign.

**The kill-and-resume battery** (:func:`kill_resume_roundtrip`) runs a
real campaign in a child process (``python -m repro.chaos.campaign child
<kind>``) under ``RCC_CHAOS="exit-after=N"`` — a deterministic SIGKILL
right after the N-th journaled completion — then re-invokes the same
campaign and asserts that (a) the resumed run replays exactly the N
journaled cells without re-running them, and (b) its output is
byte-identical to an uninterrupted run once wall-clock fields are
stripped. Campaign kinds cover the sweep entry points: litmus fuzzing
and hostile workloads (plus the raw ``run_cells`` cache path).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.plan import CHAOS_EXIT_CODE
from repro.errors import FAILURE_KINDS, HarnessError
from repro.exec.engine import RetryPolicy, SweepExecutor
from repro.settings import Settings, cli_settings

#: Wall-clock-dependent report fields, stripped before any cross-run
#: equality check (everything else must be byte-identical).
WALL_CLOCK_FIELDS = frozenset({
    "wall_s", "events_per_s", "events_per_s_median", "cliffs",
    "throughput_judged",
})

#: Campaign kinds the child runner (and the resume battery) understands.
CHILD_KINDS = ("cells", "litmus", "hostile")


def strip_wall_clock(doc: Any) -> Any:
    """Recursively drop wall-clock-derived fields from a JSON-able doc,
    leaving only content that must reproduce across runs."""
    if isinstance(doc, dict):
        return {k: strip_wall_clock(v) for k, v in sorted(doc.items())
                if k not in WALL_CLOCK_FIELDS}
    if isinstance(doc, list):
        return [strip_wall_clock(v) for v in doc]
    return doc


# ----------------------------------------------------------------------
# Contract battery
# ----------------------------------------------------------------------

def _chaos_cell(x: int) -> Dict[str, int]:
    """Trivial deterministic worker for the contract battery (module
    level so it forks/pickles; cheap so plans run in milliseconds)."""
    return {"x": x, "y": x * x + 1}


@dataclass(frozen=True)
class ChaosPlan:
    """One contract-battery scenario."""

    spec: str
    #: ``serial`` / ``pool`` (executor.map), ``cache`` (run_cells against
    #: a real cache), ``journal`` (map with journaling under write
    #: faults).
    mode: str
    #: ``recover`` — must finish with correct results; ``failures`` —
    #: must raise HarnessError with kinds drawn from ``allowed_kinds``.
    expect: str = "recover"
    allowed_kinds: Tuple[str, ...] = FAILURE_KINDS
    timeout: Optional[float] = 15.0
    n_items: int = 8


#: The default plan matrix: every fault kind, serial and fork-pool modes.
#: Serial plans exclude ``hang`` — in-process execution cannot preempt a
#: wedged cell (documented limitation; timeouts need a worker process to
#: reap).
DEFAULT_PLANS: Tuple[ChaosPlan, ...] = (
    # Transient faults: bounded retries must absorb them silently.
    ChaosPlan("flaky:0.6;seed=3", "serial"),
    ChaosPlan("flaky:0.6;seed=11", "pool"),
    # First-attempt crashes: serial raises ChaosCrash in-process; the
    # pool loses real worker processes and must rebuild + resubmit.
    ChaosPlan("crash:0.6;seed=5", "serial"),
    ChaosPlan("crash:0.6;seed=2", "pool"),
    # First-attempt hangs: the timeout reaps the worker, retries recover.
    ChaosPlan("hang:0.4;seed=4;hang-s=10", "pool", timeout=1.0),
    # Permanent faults: structured HarnessError, correct taxonomy.
    ChaosPlan("crash:0.4:always;seed=7", "serial", expect="failures",
              allowed_kinds=("crash",)),
    ChaosPlan("crash:0.4:always;seed=9", "pool", expect="failures",
              allowed_kinds=("crash", "poisoned-pool")),
    ChaosPlan("flaky:0.4:always;seed=13", "pool", expect="failures",
              allowed_kinds=("exception",)),
    ChaosPlan("hang:0.4:always;seed=6;hang-s=10", "pool",
              expect="failures", allowed_kinds=("timeout",), timeout=1.0),
    # Storage faults: results unchanged, corruption detected on read.
    ChaosPlan("torn-write;seed=1", "cache", n_items=2),
    ChaosPlan("bit-flip;seed=1", "cache", n_items=2),
    ChaosPlan("enospc;seed=1", "cache", n_items=2),
    ChaosPlan("enospc;seed=1", "journal"),
)


@dataclass
class PlanOutcome:
    """What one contract-battery plan did."""

    plan: ChaosPlan
    ok: bool
    detail: str
    failure_kinds: List[str] = field(default_factory=list)

    def describe(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (f"{status} [{self.plan.mode:>7}] "
                f"{self.plan.spec:<34} {self.detail}")


def _run_map_plan(plan: ChaosPlan, workdir: str) -> PlanOutcome:
    items = list(range(plan.n_items))
    labels = [f"cell[{i}]" for i in items]
    ground = [_chaos_cell(i) for i in items]
    journal_dir = (os.path.join(workdir, "journal")
                   if plan.mode == "journal" else None)
    warnings: List[str] = []
    settings = Settings(jobs=1 if plan.mode == "serial" else 2,
                        chaos=plan.spec)
    ex = SweepExecutor(settings, timeout=plan.timeout,
                       retry=RetryPolicy(max_attempts=3, base_delay=0.01),
                       journal_dir=journal_dir,
                       on_summary=warnings.append)
    try:
        got = ex.map(_chaos_cell, items, labels=labels,
                     meta={"campaign": "chaos-contract", "spec": plan.spec})
    except HarnessError as err:
        kinds = sorted({f.kind for f in err.failures})
        if plan.expect != "failures":
            return PlanOutcome(plan, False,
                               f"unexpected HarnessError: {err}", kinds)
        bad = [k for k in kinds if k not in plan.allowed_kinds]
        if bad or not err.failures:
            return PlanOutcome(
                plan, False,
                f"failure kinds {kinds} outside allowed "
                f"{list(plan.allowed_kinds)}", kinds)
        for f in err.failures:
            if f.label not in labels or not f.message:
                return PlanOutcome(plan, False,
                                   f"malformed failure {f!r}", kinds)
        return PlanOutcome(
            plan, True,
            f"{len(err.failures)} structured failure(s): "
            f"{', '.join(kinds)}", kinds)
    except BaseException as exc:  # the contract forbids raw leaks
        return PlanOutcome(plan, False,
                           f"non-contract exception "
                           f"{type(exc).__name__}: {exc}")
    if plan.expect == "failures":
        return PlanOutcome(plan, False,
                           "expected a HarnessError; campaign succeeded")
    if got != ground:
        return PlanOutcome(plan, False, "results differ from ground truth")
    detail = (f"recovered, {ex.last_stats.retries} retried, "
              f"{ex.last_stats.pool_rebuilds} pool rebuild(s)")
    if plan.mode == "journal":
        if not any("journal write failed" in w for w in warnings):
            return PlanOutcome(plan, False,
                               "journal write fault was not surfaced")
        detail += ", journal degradation surfaced"
    return PlanOutcome(plan, True, detail)


def _run_cache_plan(plan: ChaosPlan, workdir: str,
                    sanitize: bool = False) -> PlanOutcome:
    from repro.config import GPUConfig
    from repro.exec import ResultCache, SimCell, payload_digest

    cfg = GPUConfig.small()
    cells = [SimCell(cfg=cfg, protocol=p, workload="bfs", intensity=0.05)
             for p in ("RCC", "MESI")][:plan.n_items]
    clean = SweepExecutor(Settings(sanitize=sanitize)).run_cells(cells)
    want = [payload_digest(r.to_payload()) for r in clean]
    root = os.path.join(workdir, f"cache-{plan.spec.replace(':', '_')}")
    try:
        cache = ResultCache(root)
        ex = SweepExecutor(Settings(sanitize=sanitize, chaos=plan.spec),
                           cache=cache)
        first = ex.run_cells(cells)
        second = ex.run_cells(cells)
    except BaseException as exc:
        return PlanOutcome(plan, False,
                           f"non-contract exception "
                           f"{type(exc).__name__}: {exc}")
    for name, batch in (("first", first), ("second", second)):
        got = [payload_digest(r.to_payload()) for r in batch]
        if got != want:
            return PlanOutcome(plan, False,
                               f"{name} run returned corrupted results")
    detail = (f"results intact; cache hits={cache.hits} "
              f"misses={cache.misses} evictions={cache.evictions} "
              f"write_errors={cache.write_errors}")
    if "enospc" in plan.spec and cache.write_errors == 0:
        return PlanOutcome(plan, False, "enospc fault never fired")
    if ("enospc" not in plan.spec and cache.evictions == 0
            and cache.hits > 0):
        return PlanOutcome(plan, False,
                           "corrupted entries were served, not evicted")
    return PlanOutcome(plan, True, detail)


def run_chaos_campaign(plans: Optional[Sequence[ChaosPlan]] = None,
                       kill_resume: Optional[Sequence[str]] = None,
                       workdir: Optional[str] = None, out=print,
                       sanitize: bool = False) -> List[PlanOutcome]:
    """Run the contract battery (and, optionally, kill-and-resume
    round-trips for the named campaign kinds); returns every outcome.

    ``repro-fuzz --chaos`` drives this with the default matrix and all
    three campaign kinds; the caller decides pass/fail from the outcomes.
    ``sanitize`` checks the cache plans' cells; child campaigns get only
    ``RCC_CHAOS``.
    """
    plans = list(DEFAULT_PLANS if plans is None else plans)
    owned = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix="rcc-chaos-")
    outcomes: List[PlanOutcome] = []
    try:
        for plan in plans:
            if plan.mode == "cache":
                outcome = _run_cache_plan(plan, workdir, sanitize)
            else:
                outcome = _run_map_plan(plan, workdir)
            outcomes.append(outcome)
            if out:
                out(outcome.describe())
        for kind in kill_resume or ():
            outcome = kill_resume_roundtrip(
                kind, os.path.join(workdir, f"resume-{kind}"))
            outcomes.append(outcome)
            if out:
                out(outcome.describe())
    finally:
        if owned:
            import shutil
            shutil.rmtree(workdir, ignore_errors=True)
    return outcomes


# ----------------------------------------------------------------------
# Kill-and-resume battery
# ----------------------------------------------------------------------

def _child_env(chaos: Optional[str]) -> Dict[str, str]:
    """The child campaign's environment: this process's, minus every
    ``RCC_*`` setting, plus ``RCC_CHAOS`` when a plan is armed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RCC_")}
    if chaos:
        env["RCC_CHAOS"] = chaos
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    parts = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src not in parts:
        env["PYTHONPATH"] = os.pathsep.join([src] + parts)
    return env


def _run_child(kind: str, workdir: str,
               chaos: Optional[str]) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "repro.chaos.campaign", "child", kind,
           "--workdir", workdir]
    return subprocess.run(cmd, env=_child_env(chaos),
                          capture_output=True, text=True, timeout=600)


def _child_report(proc: subprocess.CompletedProcess) -> Dict[str, Any]:
    for line in reversed(proc.stdout.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError(f"child produced no report; stderr:\n{proc.stderr}")


def kill_resume_roundtrip(kind: str, workdir: str,
                          exit_after: int = 2) -> PlanOutcome:
    """One kill-and-resume equivalence round-trip for a campaign kind.

    Child run 1 (journaling, ``RCC_CHAOS=exit-after=N``) dies with
    :data:`CHAOS_EXIT_CODE` right after journaling its N-th completion;
    run 2 (same flags, chaos off) must resume — replaying exactly N
    cells, re-running zero completed ones — and run 3 (a fresh straight
    shot in a clean directory) provides the ground truth the resumed
    output must match byte-for-byte modulo wall-clock fields.
    """
    plan = ChaosPlan(f"exit-after={exit_after}", f"resume:{kind}")
    killed = _run_child(kind, os.path.join(workdir, "a"),
                        f"exit-after={exit_after}")
    if killed.returncode != CHAOS_EXIT_CODE:
        return PlanOutcome(
            plan, False,
            f"kill run exited {killed.returncode}, want "
            f"{CHAOS_EXIT_CODE}; stderr:\n{killed.stderr[-2000:]}")
    resumed = _run_child(kind, os.path.join(workdir, "a"), None)
    if resumed.returncode != 0:
        return PlanOutcome(plan, False,
                           f"resume run exited {resumed.returncode}; "
                           f"stderr:\n{resumed.stderr[-2000:]}")
    fresh = _run_child(kind, os.path.join(workdir, "b"), None)
    if fresh.returncode != 0:
        return PlanOutcome(plan, False,
                           f"fresh run exited {fresh.returncode}; "
                           f"stderr:\n{fresh.stderr[-2000:]}")
    try:
        res_doc = _child_report(resumed)
        fresh_doc = _child_report(fresh)
    except ValueError as exc:
        return PlanOutcome(plan, False, str(exc))
    if res_doc["canonical"] != fresh_doc["canonical"]:
        return PlanOutcome(plan, False,
                           "resumed output differs from an "
                           "uninterrupted run")
    stats = res_doc["stats"]
    n_cells = stats["n_cells"]
    rerun = stats["n_computed"] - (n_cells - exit_after)
    if stats["n_replayed"] + stats.get("n_cached", 0) < exit_after:
        return PlanOutcome(
            plan, False,
            f"resume replayed only {stats['n_replayed']} of the "
            f"{exit_after} journaled cells (stats: {stats})")
    if rerun > 0:
        return PlanOutcome(
            plan, False,
            f"resume re-ran {rerun} already-completed cell(s) "
            f"(stats: {stats})")
    return PlanOutcome(
        plan, True,
        f"killed at {exit_after}/{n_cells}, resumed "
        f"{stats['n_replayed']} replayed + {stats['n_computed']} "
        f"computed, outputs identical")


# ----------------------------------------------------------------------
# The child campaign runner (``python -m repro.chaos.campaign child ...``)
# ----------------------------------------------------------------------

def _child_cells(workdir: str, ex_kwargs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.config import GPUConfig
    from repro.exec import ResultCache, payload_digest, SimCell

    cfg = GPUConfig.small()
    cells = [SimCell(cfg=cfg, protocol=p, workload=w, intensity=0.05)
             for p in ("RCC", "MESI") for w in ("bfs", "stn")]
    ex = SweepExecutor(cache=ResultCache(os.path.join(workdir, "cache")),
                       **ex_kwargs)
    results = ex.run_cells(cells, meta={"campaign": "chaos-child-cells"})
    return {"canonical": [payload_digest(r.to_payload())
                          for r in results],
            "stats": _stats_doc(ex)}


def _child_litmus(workdir: str, ex_kwargs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.config import GPUConfig
    from repro.fuzz.differential import DifferentialRunner, run_campaign
    from repro.fuzz.generator import FuzzKnobs

    runner = DifferentialRunner(cfg=GPUConfig.small(),
                                protocols=["RCC", "MESI"])
    knobs = FuzzKnobs(n_cores=2, warps_per_core=1, ops_per_warp=4,
                      n_addrs=2)
    ex = SweepExecutor(**ex_kwargs)
    result = run_campaign(runner, seed=7, n_programs=6, knobs=knobs,
                          shrink=False, executor=ex)
    tallies = {
        name: {"runs": t.runs, "errors": t.errors,
               "witness": t.witness_failures, "oracle": t.oracle_failures,
               "exhausted": t.oracle_exhausted,
               "cycles_mean": round(t.cycles.mean, 3)}
        for name, t in sorted(result.tallies.items())
    }
    return {"canonical": {"programs_run": result.programs_run,
                          "programs_failed": result.programs_failed,
                          "sc_violations": result.sc_violations,
                          "tallies": tallies},
            "stats": _stats_doc(ex)}


def _child_hostile(workdir: str, ex_kwargs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.fuzz.workloads import run_hostile_campaign

    ex = SweepExecutor(**ex_kwargs)
    result = run_hostile_campaign(
        config_name="small", regimes="storm", runs=4, seed=0,
        protocols=("RCC",), executor=ex)
    return {"canonical": strip_wall_clock(result.to_json()),
            "stats": _stats_doc(ex)}


def _stats_doc(ex: SweepExecutor) -> Dict[str, Any]:
    s = ex.last_stats
    return {"n_cells": s.n_cells, "n_computed": s.n_computed,
            "n_cached": s.n_cached, "n_replayed": s.n_replayed,
            "retries": s.retries}


_CHILD_RUNNERS = {
    "cells": _child_cells,
    "litmus": _child_litmus,
    "hostile": _child_hostile,
}


def child_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for subprocess campaigns (the resume battery's target;
    also handy for reproducing resume bugs by hand)::

        RCC_CHAOS="exit-after=2" python -m repro.chaos.campaign \\
            child cells --workdir /tmp/c    # dies with exit code 86
        python -m repro.chaos.campaign child cells --workdir /tmp/c
    """
    import argparse

    p = argparse.ArgumentParser(prog="repro.chaos.campaign")
    p.add_argument("cmd", choices=["child"])
    p.add_argument("kind", choices=sorted(_CHILD_RUNNERS))
    p.add_argument("--workdir", required=True)
    p.add_argument("--jobs", type=int, default=None)
    args = p.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    ex_kwargs = {"settings": cli_settings(p, args),
                 "journal_dir": os.path.join(args.workdir, "journal"),
                 "retry": RetryPolicy(max_attempts=3, base_delay=0.01)}
    report = _CHILD_RUNNERS[args.kind](args.workdir, ex_kwargs)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(child_main())
