"""Benchmark definitions and the baseline comparison policy.

Throughput is measured per cell as engine events fired per wall-clock
second. Absolute events/sec varies across machines, so every report also
carries a *calibration score* — the throughput of a fixed pure-Python
loop on the same interpreter — and regression checks compare
calibration-normalized throughput. That makes a stored baseline
meaningful on a different host as long as the tolerance band is wide
enough to absorb residual machine skew (the CI gate runs baseline and
candidate on the same runner class, where the band mostly absorbs
scheduler noise).
"""

from __future__ import annotations

import dataclasses
import functools
import os
import platform
import subprocess
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import GPUConfig
from repro.core.lease_policy import available_lease_policies
from repro.exec import SimCell, SweepExecutor, run_cell
from repro.settings import Settings

BENCH_SCHEMA = 4

ABLATION_SCHEMA = 4


def provenance(settings: Settings) -> Dict[str, Any]:
    """Where a report's numbers came from: git revision, the interpreter,
    and the settings that shape how cells ran. Stamped into every
    BENCH_*/ABLATION_* report so a committed artifact is self-describing.
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

#: Cells for ``--quick`` mode (CI smoke): the small machine keeps each
#: cell under a second while still exercising all four protocol families
#: and both timestamp designs (logical RCC, physical TC).
_QUICK = [
    ("MESI", "bfs"),
    ("TCS", "dlb"),
    ("TCW", "lud"),
    ("RCC", "bfs"),
    ("RCC-WO", "stn"),
]

#: Cells for full mode: the paper's bench machine on the workloads that
#: dominate the Fig. 9 sweep's runtime, including the lease-pressure
#: cases (TCS/TCW on bfs) that stress the L2 retry path.
_FULL = [
    ("MESI", "bfs"),
    ("TCS", "bfs"),
    ("TCW", "bfs"),
    ("RCC", "bfs"),
    ("RCC-WO", "stn"),
    ("MESI", "kmn"),
    ("TCW", "lud"),
    ("RCC", "sr"),
]


def quick_cells() -> List[SimCell]:
    cfg = GPUConfig.small()
    return [SimCell(cfg=cfg, protocol=p, workload=w) for p, w in _QUICK]


def full_cells() -> List[SimCell]:
    cfg = GPUConfig.bench()
    return [SimCell(cfg=cfg, protocol=p, workload=w) for p, w in _FULL]


def calibrate(iters: int = 300_000, repeats: int = 3) -> float:
    """Machine-speed score: iterations/sec of a fixed arithmetic loop.

    Best-of-N wall time so that a context switch mid-repeat cannot
    deflate the score (which would *inflate* normalized throughput).
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(iters):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return iters / best


def _measure(cell: SimCell, run: Callable[..., Any] = run_cell
             ) -> Tuple[Dict[str, Any], Any]:
    t0 = time.perf_counter()
    result = run(cell)
    wall = time.perf_counter() - t0
    fired = getattr(result, "events_fired", 0) or 0
    cycles = getattr(result, "cycles", 0) or 0
    mem_ops = getattr(result, "mem_ops", 0) or 0
    stall = getattr(result, "sc_stall_cycles", 0) or 0
    return (
        {
            "wall_s": round(wall, 6),
            "events": fired,
            "cycles": cycles,
            "events_per_s": round(fired / wall, 1) if wall > 0 else 0.0,
            "cycles_per_s": round(cycles / wall, 1) if wall > 0 else 0.0,
            # Simulated-machine stall pressure: deterministic per cell,
            # the reference the hostile lab's stall-cliff check is
            # priced against.
            "sc_stall_cycles": stall,
            "stall_cycles_per_op": round(stall / mem_ops, 3)
            if mem_ops else 0.0,
        },
        result,
    )


def profile_cell(cell: SimCell, top_n: int = 15,
                 run: Callable[..., Any] = run_cell) -> List[Dict[str, Any]]:
    """Re-run one cell under cProfile; top-``top_n`` functions by
    cumulative time. Run separately from :func:`_measure` so profiler
    overhead never contaminates the reported throughput."""
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    run(cell)
    prof.disable()
    stats = pstats.Stats(prof)
    rows: List[Dict[str, Any]] = []
    ranked = sorted(stats.stats.items(),  # type: ignore[attr-defined]
                    key=lambda kv: kv[1][3], reverse=True)
    for (filename, line, name), (_cc, nc, tt, ct, _callers) in ranked:
        if name in ("<built-in method builtins.exec>", "profile_cell"):
            continue  # harness frames above the cell run
        where = (name if filename.startswith("<") and line == 0
                 else f"{os.path.basename(filename)}:{line}:{name}")
        rows.append({
            "func": where,
            "ncalls": nc,
            "tottime_s": round(tt, 4),
            "cumtime_s": round(ct, 4),
        })
        if len(rows) >= top_n:
            break
    return rows


def run_bench(quick: bool = False, profile_top: int = 0,
              executor: Optional[SweepExecutor] = None) -> Dict[str, Any]:
    """Run the benchmark suite; returns the report dict.

    Cells run one at a time, in this process, through ``executor.run_cell``
    (default: the environment's settings), so the report records jobs 1
    and no chaos.

    With ``profile_top`` > 0, every cell is re-run under cProfile after
    its timing run and the report gains a per-cell ``profile`` block with
    the top-N functions by cumulative time (the timing numbers stay
    profiler-free).
    """
    cells = quick_cells() if quick else full_cells()
    executor = executor or SweepExecutor()
    calibration = calibrate()
    report: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "mode": "quick" if quick else "full",
        "provenance": provenance(dataclasses.replace(
            executor.settings, jobs=1, chaos=None)),
        "calibration_loops_per_s": round(calibration, 1),
        "cells": {},
    }
    total_wall = 0.0
    total_events = 0
    for cell in cells:
        entry, _ = _measure(cell, executor.run_cell)
        entry["events_per_s_normalized"] = round(
            entry["events_per_s"] / calibration, 6)
        if profile_top > 0:
            entry["profile"] = profile_cell(cell, profile_top,
                                            executor.run_cell)
        report["cells"][cell.label] = entry
        total_wall += entry["wall_s"]
        total_events += entry["events"]
    report["totals"] = {
        "wall_s": round(total_wall, 6),
        "events": total_events,
        "events_per_s": round(total_events / total_wall, 1)
        if total_wall > 0 else 0.0,
    }
    return report


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
    (module level so the sweep executor can ship it to worker processes;
    the calibration-normalized throughput is attached in the parent)."""
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
    calibration = calibrate()
    report: Dict[str, Any] = {
        "schema": ABLATION_SCHEMA,
        "kind": "lease-ablation",
        "mode": "quick" if quick else "full",
        "provenance": provenance(executor.settings),
        "calibration_loops_per_s": round(calibration, 1),
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
        wall = entry["wall_s"]
        entry["events_per_s_normalized"] = round(
            entry["events"] / wall / calibration, 6) if wall > 0 else 0.0
        label = f"{cell.protocol}/{cell.workload}"
        report["policies"].setdefault(cell.lease_policy, {})[label] = entry
    return report


def render_ablation(report: Dict[str, Any]) -> str:
    """Fixed-width table of the ablation report, one row per cell."""
    lines = [
        f"lease-policy ablation ({report['mode']} mode, calibration "
        f"{report['calibration_loops_per_s'] / 1e6:.2f}M loops/s)",
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


def compare_to_baseline(current: Dict[str, Any], baseline: Dict[str, Any],
                        tolerance: float = 0.20) -> List[str]:
    """Regression check; returns failure messages (empty = pass).

    A cell fails when its calibration-normalized events/sec drops more
    than ``tolerance`` below the baseline's. Cells present only on one
    side are reported but do not fail the gate (the cell set may evolve);
    a baseline from a different mode does fail loudly.
    """
    failures: List[str] = []
    if baseline.get("mode") != current.get("mode"):
        return [
            f"baseline mode {baseline.get('mode')!r} does not match "
            f"current mode {current.get('mode')!r}; regenerate the "
            "baseline with --update-baseline"
        ]
    base_cells = baseline.get("cells", {})
    cur_cells = current.get("cells", {})
    for label, base in base_cells.items():
        cur = cur_cells.get(label)
        if cur is None:
            continue
        base_norm = base.get("events_per_s_normalized", 0.0)
        cur_norm = cur.get("events_per_s_normalized", 0.0)
        if base_norm <= 0:
            continue
        floor = base_norm * (1.0 - tolerance)
        if cur_norm < floor:
            failures.append(
                f"{label}: normalized throughput {cur_norm:.6f} is "
                f"{(1 - cur_norm / base_norm) * 100:.1f}% below baseline "
                f"{base_norm:.6f} (tolerance {tolerance * 100:.0f}%)"
            )
        if base.get("events") and cur.get("events") \
                and base["events"] != cur["events"]:
            failures.append(
                f"{label}: event count changed {base['events']} -> "
                f"{cur['events']} — simulation behavior drifted, not just "
                "speed; update the baseline deliberately if intended"
            )
    return failures
