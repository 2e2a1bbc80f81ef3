"""The chaos contract battery: the executor contract under injected faults.

It runs a matrix of seeded :class:`~repro.chaos.plan.FaultPlan` specs
against the sweep executor and asserts, for every plan, the contract the
rest of the repo relies on:

* recoverable plans (``mode=first`` faults) finish with *correct results
  in input order* — bounded retries absorb every injected fault;
* unrecoverable plans (``mode=always`` faults) surface as one structured
  :class:`~repro.errors.HarnessError` whose per-cell
  :class:`~repro.errors.CellFailure` records carry kinds from the
  ``timeout`` / ``crash`` / ``poisoned-pool`` / ``exception`` taxonomy —
  never a raw ``BrokenProcessPool``, never a hang, never a wrong value;
* cache-fault plans (``torn-write`` / ``bit-flip`` / ``enospc``) never
  change results: a corrupted entry is detected and recomputed, and a
  failed write is swallowed.

``tests/test_chaos.py`` runs one case per plan (``make chaos``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import FAILURE_KINDS, HarnessError
from repro.exec.engine import RetryPolicy, SweepExecutor
from repro.settings import Settings


def _chaos_cell(x: int) -> Dict[str, int]:
    """Trivial deterministic worker for the contract battery (module
    level so it forks/pickles; cheap so plans run in milliseconds)."""
    return {"x": x, "y": x * x + 1}


@dataclass(frozen=True)
class ChaosPlan:
    """One contract-battery scenario."""

    spec: str
    #: ``serial`` / ``pool`` (executor.map), ``cache`` (run_cells against
    #: a real cache).
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
)


@dataclass
class PlanOutcome:
    """What one contract-battery plan did."""

    plan: ChaosPlan
    ok: bool
    detail: str

    def describe(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (f"{status} [{self.plan.mode:>7}] "
                f"{self.plan.spec:<34} {self.detail}")


def _run_map_plan(plan: ChaosPlan) -> PlanOutcome:
    items = list(range(plan.n_items))
    labels = [f"cell[{i}]" for i in items]
    ground = [_chaos_cell(i) for i in items]
    settings = Settings(jobs=1 if plan.mode == "serial" else 2,
                        chaos=plan.spec)
    ex = SweepExecutor(settings, timeout=plan.timeout,
                       retry=RetryPolicy(max_attempts=3, base_delay=0.01))
    try:
        got = ex.map(_chaos_cell, items, labels=labels)
    except HarnessError as err:
        kinds = sorted({f.kind for f in err.failures})
        if plan.expect != "failures":
            return PlanOutcome(plan, False,
                               f"unexpected HarnessError: {err}")
        bad = [k for k in kinds if k not in plan.allowed_kinds]
        if bad or not err.failures:
            return PlanOutcome(
                plan, False,
                f"failure kinds {kinds} outside allowed "
                f"{list(plan.allowed_kinds)}")
        for f in err.failures:
            if f.label not in labels or not f.message:
                return PlanOutcome(plan, False,
                                   f"malformed failure {f!r}")
        return PlanOutcome(
            plan, True,
            f"{len(err.failures)} structured failure(s): "
            f"{', '.join(kinds)}")
    except BaseException as exc:  # the contract forbids raw leaks
        return PlanOutcome(plan, False,
                           f"non-contract exception "
                           f"{type(exc).__name__}: {exc}")
    if plan.expect == "failures":
        return PlanOutcome(plan, False,
                           "expected a HarnessError; campaign succeeded")
    if got != ground:
        return PlanOutcome(plan, False, "results differ from ground truth")
    return PlanOutcome(plan, True,
                       f"recovered, {ex.last_stats.retries} retried, "
                       f"{ex.last_stats.pool_rebuilds} pool rebuild(s)")


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
