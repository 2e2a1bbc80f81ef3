"""Calibrated, per-layer benchmark of the simulator.

Usage::

    python3 bench/run.py [--workload fig9,sc-miss,...] [--seed N]
                         [--seconds S] [--trace 0|1] [--out FILE]
    python3 bench/run.py --smoke     # 2 cells per workload, small machine
    python3 bench/run.py --pin       # regenerate bench/digests.json

For each workload, serially and each in fresh subprocesses with every
``RCC_*`` variable removed from the environment:

1. ``SETUP_PROCS`` set-up processes (import, generate, build; no run);
2. one measuring process: a discarded warm-up cell, then passes over the
   cells until ``--seconds`` have elapsed, each cell bracketed by a
   calibration loop;
3. with ``--trace 1``, one process making a single traced pass.

Every cell's ``to_payload()`` digest is checked: at the pinned seed
against ``digests.json``, at any other seed for identity across passes
and the traced pass. The warm-up cell always runs at the pinned seed, so
every run checks at least one pinned digest.

Prints the end-to-end metrics (and with ``--trace 1`` the per-layer
table), writes everything, raw samples included, to ``--out``, and ends
with one JSON line: ``correct``, ``attempted``, ``failed`` and the
end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics. Exits 1
when a cell failed, 2 when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional

import spec

BENCH_DIR = Path(__file__).resolve().parent
#: The tree whose ``src/`` is measured: the checkout holding ``bench/``.
TREE = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_OUT = TREE / ".bench_results" / "run.json"

#: Ceiling on one worker process beyond its time box; it is killed and
#: reaped past ``seconds`` x 2 + this (the last pass and the set-up run
#: past the time box).
WORKER_SLACK_S = 120


class BenchError(Exception):
    """The benchmark could not run (as opposed to a cell failing)."""


# ----------------------------------------------------------------------
# Subprocesses
# ----------------------------------------------------------------------
def worker_env() -> Dict[str, str]:
    """The parent's environment minus every ``RCC_*`` switch, importing
    the simulator from this tree, with a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RCC_")}
    env["PYTHONPATH"] = str(TREE / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(job: Dict[str, Any]) -> Dict[str, Any]:
    timeout = 2 * job.get("seconds", 0) + WORKER_SLACK_S
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)], cwd=TREE,
            env=worker_env(), stdout=subprocess.PIPE, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['mode']} worker exceeded "
                         f"{timeout:g} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{job['mode']} worker exited with code "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def git_provenance() -> Dict[str, Any]:
    """Commit and dirty flag of this tree, when it is a git checkout."""
    if not (TREE / ".git").exists():
        return {"git_sha": None, "git_dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=TREE, text=True,
                              capture_output=True, timeout=30).stdout
    return {"git_sha": git("rev-parse", "HEAD").strip() or None,
            "git_dirty": bool(git("status", "--porcelain").strip())}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_digests(samples: List[Dict[str, Any]],
                  pinned: Dict[str, Dict[str, Any]]) -> List[str]:
    """One message per failed cell run (empty when all passed).

    At the pinned seed a run must match ``digests.json``; at any other
    seed, the first run of that cell in this benchmark run."""
    problems = []
    first: Dict[tuple, str] = {}
    for s in samples:
        name = spec.label(s["cell"])
        if "error" in s:
            problems.append(f"{name} seed {s['seed']}: {s['error']}")
            continue
        if s["seed"] == spec.PIN_SEED:
            want = pinned.get(name, {}).get("sha256")
        else:
            want = first.setdefault((name, s["seed"]), s["digest"])
        if s["digest"] != want:
            problems.append(f"{name} seed {s['seed']}: payload digest "
                            f"{s['digest'][:12]} != expected "
                            f"{(want or 'none pinned')[:12]}")
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def calibrated_run_s(sample: Dict[str, Any]) -> float:
    return sample["run_s"] * spec.calibration_factor(*sample["cal"])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(setups: List[Dict[str, Any]],
               measured: Dict[str, Any]) -> Dict[str, Any]:
    passes = [[s for s in p if "error" not in s]
              for p in measured["passes"]]
    calibrated_by_cell = defaultdict(list)
    raw_by_cell = defaultdict(list)
    for samples in passes:
        for s in samples:
            calibrated_by_cell[spec.label(s["cell"])].append(
                calibrated_run_s(s))
            raw_by_cell[spec.label(s["cell"])].append(s["run_s"])
    totals = [sum(calibrated_run_s(s) for s in p) for p in passes]
    setup_totals = [
        (s["import_s"] + s["generate_s"] + s["build_s"])
        * spec.calibration_factor(*s["cal"]) for s in setups]
    q1, med, q3 = spec.quartiles(totals)
    return {
        "metrics": {
            "run_s": sum(spec.quartiles(v)[1]
                         for v in calibrated_by_cell.values()),
            "setup_s": spec.quartiles(setup_totals)[1],
            "peak_rss_mb": measured["peak_rss_mb"],
            "sim_cycles": sum(s["counts"]["cycles"] for s in passes[0]),
        },
        # Spread of whole-pass totals, n = passes made.
        "run_s_reps": {"median": med, "q1": q1, "q3": q3,
                       "n": len(totals)},
        # The same sum uncalibrated, to judge what calibration removes.
        "raw_run_s": sum(spec.quartiles(v)[1]
                         for v in raw_by_cell.values()),
    }


def per_layer(setups: List[Dict[str, Any]], traced: Dict[str, Any],
              run_s: float) -> Dict[str, Any]:
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    edges: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    entry_calls: Dict[str, int] = defaultdict(int)
    counts: Dict[str, int] = defaultdict(int)
    traced_run_s = raw_total = raw_self = 0.0
    for s in traced["passes"][0]:
        if "error" in s:
            continue
        factor = spec.calibration_factor(*s["cal"])
        traced_run_s += s["run_s"] * factor
        raw_total += s["run_s"]
        for parent, layer, n, sec in s["edges"]:
            self_s[layer] += sec * factor
            calls[layer] += n
            edge = edges[f"{parent or 'root'}->{layer}"]
            edge[0] += n
            edge[1] += sec * factor
            raw_self += sec
        for entry, n in s["entry_calls"].items():
            entry_calls[entry] += n
        for key, n in s["counts"].items():
            counts[key] += n
    total = sum(self_s.values())
    # Events whose callback opened no span directly under the engine:
    # retry polls, livelock ticks and other untraced callbacks.
    top_level = sum(n for key, (n, _) in edges.items()
                    if key.startswith("timing->"))
    m: Dict[str, float] = {
        "timing.events": counts["events_fired"],
        "timing.other_events": counts["events_fired"] - top_level,
    }
    for layer in spec.LAYERS:
        if layer != "timing":
            m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.share"] = ratio(self_s[layer], total)
    mem_ops = counts["mem_ops"]
    m.update({
        "gpu.ticks_per_op": ratio(entry_calls["gpu._tick"], mem_ops),
        "gpu.sc_stall_cycles": counts["sc_stall_cycles"],
        "gpu.structural_stalls": counts["structural_stalls"],
        "l1.load_hit_rate": ratio(counts["l1_load_hits"],
                                  counts["l1_loads"]),
        "l1.expired_frac": ratio(counts["l1_load_expired"],
                                 counts["l1_loads"]),
        "noc.flits_per_op": ratio(counts["total_flits"], mem_ops),
        "l2.hit_rate": ratio(counts["l2_hits"],
                             counts["l2_hits"] + counts["l2_misses"]),
        "l2.renewable_frac": ratio(counts["l2_renew_grants"],
                                   counts["l2_gets_expired"]),
        "l2.store_lease_wait_cycles": counts["l2_store_lease_wait"],
        "l2.invalidations_sent": counts["l2_invalidations_sent"],
        "dram.row_hit_rate": ratio(
            counts["dram_row_hits"],
            counts["dram_row_hits"] + counts["dram_row_misses"]),
        "sim.finish_s": self_s["sim"],
        "trace.overhead": ratio(traced_run_s, run_s) - 1.0,
    })
    for name, key in (("workloads.generate_s", "generate_s"),
                      ("sim.build_s", "build_s"),
                      ("sim.import_s", "import_s")):
        m[name] = spec.quartiles(
            [s[key] * spec.calibration_factor(*s["cal"])
             for s in setups])[1]
    return {
        "metrics": {k: m[k] for k in spec.PER_LAYER},
        "edges": {k: {"calls": n, "self_s": sec}
                  for k, (n, sec) in sorted(edges.items())},
        "entry_calls": dict(sorted(entry_calls.items())),
        # The tracer's self times must add up to the independently
        # timed traced run; both raw seconds.
        "accounting": {"self_sum_s": raw_self, "traced_total_s": raw_total},
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def bench_workload(name: str, seed: int, seconds: float, trace: bool,
                   smoke: bool, pins: Dict[str, Any]) -> Dict[str, Any]:
    config = "small" if smoke else "bench"
    cells = spec.cells_for(name, smoke)
    job = {"cells": cells, "config": config, "seed": seed,
           "warmup": cells[0], "warmup_seed": spec.PIN_SEED}
    setups = [run_worker(dict(job, mode="setup"))
              for _ in range(1 if smoke else spec.SETUP_PROCS)]
    measured = run_worker(dict(job, mode="measure", seconds=seconds))
    samples = [measured["warmup"]] + [s for p in measured["passes"]
                                      for s in p]
    out: Dict[str, Any] = {"cells": [spec.label(c) for c in cells]}
    out.update(end_to_end(setups, measured))
    raw = {"setup": setups, "measure": measured}
    if trace:
        traced = raw["trace"] = run_worker(dict(job, mode="trace"))
        samples += [traced["warmup"]] + traced["passes"][0]
        out["per_layer"] = per_layer(setups, traced,
                                     out["metrics"]["run_s"])
    problems = check_digests(samples, pins.get(config, {}))
    out.update({
        "attempted": len(samples),
        "failed": len(problems),
        "problems": problems,
        "provenance": measured["provenance"],
        "raw": raw,
    })
    out["metrics"]["failed_frac"] = len(problems) / len(samples)
    return out


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:.4g}"


def print_end_to_end(results: Dict[str, Dict[str, Any]]) -> None:
    units = dict(spec.END_TO_END, failed_frac="ratio")
    names = list(results)
    print(f"{'metric':<14} {'unit':<7}" + "".join(f"{n:>14}" for n in names))
    for metric, unit in units.items():
        row = "".join(f"{_fmt(results[n]['metrics'][metric]):>14}"
                      for n in names)
        print(f"{metric:<14} {unit:<7}{row}")
    reps = [results[n]["run_s_reps"] for n in names]
    print(f"{'passes':<22}" + "".join(f"{r['n']:>14}" for r in reps))
    print(f"{'pass IQR/median':<22}" + "".join(
        f"{(r['q3'] - r['q1']) / r['median']:>14.2%}" for r in reps))


def print_per_layer(results: Dict[str, Dict[str, Any]]) -> None:
    names = [n for n in results if "per_layer" in results[n]]
    print()
    print(f"{'per-layer':<28}" + "".join(f"{n:>14}" for n in names))
    for metric, unit in spec.PER_LAYER.items():
        row = "".join(
            f"{_fmt(results[n]['per_layer']['metrics'][metric]):>14}"
            for n in names)
        print(f"{metric:<21} {unit:<6}{row}")


def summary_line(results: Dict[str, Dict[str, Any]], trace: bool
                 ) -> Dict[str, Any]:
    units = spec.PER_LAYER if trace else spec.END_TO_END
    metrics = {}
    for name, r in results.items():
        values = r["per_layer"]["metrics"] if trace else r["metrics"]
        prefix = f"{name}/" if len(results) > 1 else ""
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": values[metric],
                                        "unit": unit}
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
# Pinning
# ----------------------------------------------------------------------
def pin() -> None:
    """Rewrite digests.json: every cell once at the pinned seed, on the
    bench machine and (for ``--smoke``) on the small one."""
    pins: Dict[str, Any] = {"seed": spec.PIN_SEED}
    for config, smoke in (("bench", False), ("small", True)):
        entries = {}
        for name in spec.WORKLOADS:
            out = run_worker({"mode": "measure", "config": config,
                              "cells": spec.cells_for(name, smoke),
                              "seed": spec.PIN_SEED, "seconds": 0})
            for s in out["passes"][0]:
                if "error" in s:
                    raise BenchError(f"cannot pin {spec.label(s['cell'])}: "
                                     f"{s['error']}")
                entries[spec.label(s["cell"])] = {
                    "sha256": s["digest"],
                    "cycles": s["counts"]["cycles"],
                    "mem_ops": s["counts"]["mem_ops"]}
        pins[config] = dict(sorted(entries.items()))
        print(f"pinned {len(entries)} {config} cells")
    DIGESTS.write_text(json.dumps(pins, indent=1) + "\n")


# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        description="Calibrated, per-layer benchmark of the simulator.")
    ap.add_argument("--workload", "--workloads", dest="workloads",
                    default=",".join(spec.WORKLOADS),
                    help="comma-separated workloads (default: all)")
    ap.add_argument("--seed", type=int, default=spec.PIN_SEED)
    ap.add_argument("--seconds", type=float, default=spec.DEFAULT_SECONDS,
                    help="time box of the measuring passes per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1,
                    help="1: also make a traced pass (per-layer metrics)")
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT,
                    help="where to write the full JSON report")
    ap.add_argument("--smoke", action="store_true",
                    help="2 cells per workload on the small machine, "
                         "one pass")
    ap.add_argument("--pin", action="store_true",
                    help="regenerate digests.json at the pinned seed")
    args = ap.parse_args(argv)
    args.workloads = args.workloads.split(",")
    unknown = sorted(set(args.workloads) - set(spec.WORKLOADS))
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; "
                 f"choose from {list(spec.WORKLOADS)}")
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        if not (TREE / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no simulator sources under {TREE / 'src'}")
        if args.pin:
            pin()
            return 0
        pins = json.loads(DIGESTS.read_text())
        seconds = 0 if args.smoke else args.seconds
        results = {}
        for name in args.workloads:
            results[name] = bench_workload(name, args.seed, seconds,
                                           bool(args.trace), args.smoke,
                                           pins)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_end_to_end(results)
    if args.trace:
        print_per_layer(results)
    for name, r in results.items():
        for problem in r["problems"]:
            print(f"FAILED {name}: {problem}")
    report = {
        "schema": 1,
        "provenance": dict(git_provenance(), seed=args.seed,
                           seconds=seconds, smoke=args.smoke,
                           reference_events_per_s=(
                               spec.REFERENCE_EVENTS_PER_S)),
        "workloads": results,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    line = summary_line(results, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
