"""The lease-policy ablation behind ``repro-perf --lease-ablation``.

Every registered lease policy runs on both RCC variants over three
workloads; the report records renew traffic, expired loads, SC stall
cycles per memory op and wall-clock events/s per cell, stamped with
:func:`provenance`. Timing the simulator itself is ``bench/run.py``'s
job (and ``bench/ab.py`` for A/B runs).
"""

from __future__ import annotations

import dataclasses
import functools
import os
import platform
import subprocess
import time
from typing import Any, Callable, Dict, List, Optional

from repro.config import GPUConfig
from repro.core.lease_policy import available_lease_policies
from repro.exec import SimCell, SweepExecutor, run_cell
from repro.settings import Settings

ABLATION_SCHEMA = 5


def provenance(settings: Settings) -> Dict[str, Any]:
    """Where a report's numbers came from: git revision, the interpreter,
    and the settings that shape how cells ran. Stamped into every
    ABLATION_* report so a committed artifact is self-describing.
    Paths stay out, so two runs in different directories report alike."""
    here = os.path.dirname(os.path.abspath(__file__))
    sha = "unknown"
    dirty = False
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=here,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
        proc = subprocess.run(["git", "status", "--porcelain"], cwd=here,
                              capture_output=True, text=True, timeout=10)
        dirty = proc.returncode == 0 and bool(proc.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "settings": {"jobs": settings.jobs, "sanitize": settings.sanitize,
                     "chaos": settings.chaos},
    }

#: Protocols × workloads of the lease-policy ablation: both RCC variants
#: (the only protocols a lease policy can affect) on workloads spanning
#: the sharing spectrum — graph traversal (bfs), stencil (stn), and the
#: lock-heavy dynamic load balancer (dlb), the paper's renew-pressure
#: extremes in Fig. 9.
_ABLATION_PROTOCOLS = ("RCC", "RCC-WO")
_ABLATION_WORKLOADS = ("bfs", "stn", "dlb")


def ablation_cells(quick: bool = False,
                   policies: Optional[List[str]] = None,
                   workloads: Optional[List[str]] = None) -> List[SimCell]:
    """The lease-ablation grid: policies × RCC variants × workloads.

    The policy rides in ``ts_overrides`` (even for ``fixed``), so every
    cell's content key names its policy and cached results never alias
    across policies."""
    cfg = GPUConfig.small() if quick else GPUConfig.bench()
    policies = policies or available_lease_policies()
    workloads = list(workloads or _ABLATION_WORKLOADS)
    return [
        SimCell(cfg=cfg, protocol=proto, workload=wl,
                ts_overrides=(("lease_policy", policy),))
        for policy in policies
        for proto in _ABLATION_PROTOCOLS
        for wl in workloads
    ]


def _ablation_worker(cell: SimCell, run: Callable[..., Any] = run_cell
                     ) -> Dict[str, Any]:
    """Worker: run one ablation cell with ``run`` and report its metrics
    (module level so the sweep executor can ship it to worker processes)."""
    t0 = time.perf_counter()
    result = run(cell)
    wall = time.perf_counter() - t0
    mem_ops = result.mem_ops or 0
    renew_traffic = (getattr(result, "l2_renew_grants", 0) or 0) \
        + (getattr(result, "l1_renews", 0) or 0)
    return {
        "cycles": result.cycles,
        "mem_ops": mem_ops,
        "l2_renew_grants": getattr(result, "l2_renew_grants", 0) or 0,
        "l1_renews": getattr(result, "l1_renews", 0) or 0,
        "renew_traffic": renew_traffic,
        "renews_per_kop": round(1000.0 * renew_traffic / mem_ops, 2)
        if mem_ops else 0.0,
        "l1_load_expired": getattr(result, "l1_load_expired", 0) or 0,
        "sc_stall_cycles": result.sc_stall_cycles,
        "stall_cycles_per_op": round(
            result.sc_stall_cycles / mem_ops, 3) if mem_ops else 0.0,
        "wall_s": round(wall, 6),
        "events": result.events_fired,
        "events_per_s": round(result.events_fired / wall, 1)
        if wall > 0 else 0.0,
    }


def run_lease_ablation(quick: bool = False,
                       policies: Optional[List[str]] = None,
                       workloads: Optional[List[str]] = None,
                       intensity: Optional[float] = None,
                       executor: Optional[SweepExecutor] = None
                       ) -> Dict[str, Any]:
    """Fig. 9-style lease-policy ablation report.

    For every (policy, protocol, workload) cell: simulated runtime,
    renew traffic (L2 renew grants + L1 renews received), expired-load
    count, SC stall cycles per memory op, and wall-clock events/s. The
    report groups per policy so the rendering and EXPERIMENTS.md table
    read straight off it.

    The grid runs on ``executor`` (default: ``SweepExecutor()``, i.e.
    the environment's settings): it fans out over the executor's worker
    pool, runs sanitized when its settings say so, and, when the executor
    journals, each cell's metrics land in the campaign journal as it
    finishes — an interrupted ablation resumes without re-simulating
    completed cells.
    """
    cells = ablation_cells(quick=quick, policies=policies,
                           workloads=workloads)
    if intensity is not None:
        cells = [dataclasses.replace(c, intensity=intensity) for c in cells]
    executor = executor or SweepExecutor()
    report: Dict[str, Any] = {
        "schema": ABLATION_SCHEMA,
        "kind": "lease-ablation",
        "mode": "quick" if quick else "full",
        "provenance": provenance(executor.settings),
        "policies": {},
    }
    labels = [f"{c.lease_policy}/{c.protocol}/{c.workload}" for c in cells]
    entries = executor.map(
        functools.partial(_ablation_worker, run=executor.run_cell),
        cells, labels=labels,
        meta={"campaign": "lease-ablation",
              "mode": report["mode"], "intensity": intensity,
              "policies": list(policies or []),
              "workloads": list(workloads or [])})
    for cell, entry in zip(cells, entries):
        label = f"{cell.protocol}/{cell.workload}"
        report["policies"].setdefault(cell.lease_policy, {})[label] = entry
    return report


def render_ablation(report: Dict[str, Any]) -> str:
    """Fixed-width table of the ablation report, one row per cell."""
    lines = [
        f"lease-policy ablation ({report['mode']} mode)",
        f"  {'policy':<10} {'cell':<12} {'cycles':>10} {'renew/kop':>10} "
        f"{'expired':>8} {'stall/op':>9} {'ev/s':>9}",
    ]
    for policy in sorted(report["policies"]):
        for label, e in report["policies"][policy].items():
            lines.append(
                f"  {policy:<10} {label:<12} {e['cycles']:>10} "
                f"{e['renews_per_kop']:>10.2f} {e['l1_load_expired']:>8} "
                f"{e['stall_cycles_per_op']:>9.3f} "
                f"{e['events_per_s'] / 1e3:>8.1f}k")
    return "\n".join(lines)
