"""Interleaved A/B of the simulator at REF against this tree.

Usage::

    python3 bench/ab.py REF [--workload sc-miss,wo-retry] [--pairs 10]
                            [--seed 1234]

REF is exported with ``git archive`` into ``.bench_results/ab/<sha>/``
and this ``bench/`` is copied beside its ``src/``, so both sides run the
same benchmark code and only the simulator differs. Each pair runs
``bench/run.py --trace 0`` once per side, alternating which side goes
first. Per workload it reports each side's ``run_s`` median and
quartiles, the share of pairs the change (this tree) wins, and a
verdict by the rule in README.md. The export is deleted at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path
from typing import Any, Dict, List

import spec

BENCH_DIR = Path(__file__).resolve().parent
TREE = BENCH_DIR.parent
RESULTS = TREE / ".bench_results"

#: Ceiling on one side's ``run.py`` invocation.
SIDE_TIMEOUT_S = 900


def export(ref: str) -> tuple:
    """(sha, directory) of REF exported with the current bench/ added."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=TREE,
        capture_output=True, text=True, check=True).stdout.strip()
    dest = RESULTS / "ab" / sha
    shutil.rmtree(dest, ignore_errors=True)
    archive = subprocess.run(["git", "archive", "--format=tar", sha],
                             cwd=TREE, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    shutil.rmtree(dest / "bench", ignore_errors=True)
    shutil.copytree(BENCH_DIR, dest / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    return sha, dest


def run_side(tree: Path, args: argparse.Namespace, out: Path
             ) -> Dict[str, Dict[str, Any]]:
    """One ``run.py --trace 0`` on ``tree``: workload -> run_s, failed."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"),
         "--workload", ",".join(args.workloads), "--seed", str(args.seed),
         "--trace", "0", "--out", str(out)],
        cwd=tree, stdout=subprocess.DEVNULL, timeout=SIDE_TIMEOUT_S)
    if proc.returncode not in (0, 1):  # 1: a cell failed, still measured
        raise RuntimeError(f"run.py on {tree} exited {proc.returncode}")
    report = json.loads(out.read_text())["workloads"]
    return {w: {"run_s": r["metrics"]["run_s"], "failed": r["failed"]}
            for w, r in report.items()}


def verdict(base: List[float], change: List[float], bound: float) -> str:
    """The README's rule for a lower-is-better metric over paired runs.

    A gain needs the change to win >= 9/10 of the pairs (ties count for
    neither) and the medians to differ by more than the base's own
    quartile distance; likewise a regression. Otherwise the change
    passes when its median is within the bound, unless the base's spread
    exceeds the bound, which leaves the question unresolved."""
    b1, bm, b3 = spec.quartiles(base)
    _, cm, _ = spec.quartiles(change)
    n = len(base)
    if sum(c < b for b, c in zip(base, change)) >= 0.9 * n \
            and bm - cm > b3 - b1:
        return "gain"
    if sum(b < c for b, c in zip(base, change)) >= 0.9 * n \
            and cm - bm > b3 - b1:
        return "regression"
    if (b3 - b1) / bm > bound:
        return "unresolved"
    return "within bound" if cm <= bm * (1 + bound) else "regression"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref", help="git revision of the base side")
    ap.add_argument("--workload", "--workloads", dest="workloads",
                    default="sc-miss,wo-retry")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=spec.PIN_SEED)
    args = ap.parse_args()
    args.workloads = args.workloads.split(",")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (TREE / "BENCHMARK.json").read_text())["end_to_end"]}

    sha, base_tree = export(args.ref)
    sides = {"base": base_tree, "change": TREE}
    runs: Dict[str, List[Dict[str, Any]]] = {"base": [], "change": []}
    try:
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_side(
                    sides[side], args, RESULTS / "ab" / f"{side}.json"))
            print(f"pair {i + 1}/{args.pairs}: " + "  ".join(
                f"{w} base {runs['base'][-1][w]['run_s']:.4g} change "
                f"{runs['change'][-1][w]['run_s']:.4g}"
                for w in args.workloads), flush=True)
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)

    report: Dict[str, Any] = {"base": sha, "pairs": args.pairs,
                              "seed": args.seed, "workloads": {}}
    print(f"\nrun_s, {args.pairs} pairs, base {sha[:10]} vs this tree")
    print(f"{'workload':<10}{'base q1/med/q3':>26}{'change q1/med/q3':>26}"
          f"{'delta':>8}{'wins':>6}  verdict")
    for w in args.workloads:
        base = [r[w]["run_s"] for r in runs["base"]]
        change = [r[w]["run_s"] for r in runs["change"]]
        wins = sum(c < b for b, c in zip(base, change)) / args.pairs
        failed = sum(r[w]["failed"] for side in runs.values() for r in side)
        v = verdict(base, change, bounds["run_s"])
        if failed:
            v += f" ({failed} failed cell runs)"
        bq, cq = spec.quartiles(base), spec.quartiles(change)
        delta = cq[1] / bq[1] - 1
        report["workloads"][w] = {"base": base, "change": change,
                                  "base_quartiles": bq,
                                  "change_quartiles": cq, "delta": delta,
                                  "wins": wins, "verdict": v}
        print(f"{w:<10}{'/'.join(f'{x:.3f}' for x in bq):>26}"
              f"{'/'.join(f'{x:.3f}' for x in cq):>26}{delta:>8.1%}"
              f"{wins:>6.0%}  {v}")
    out = RESULTS / f"ab-{sha[:12]}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
