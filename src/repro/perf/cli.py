"""``repro-perf`` — benchmark the simulator and gate regressions.

Typical uses::

    repro-perf                         # full suite, writes BENCH_<date>.json
    repro-perf --quick                 # CI smoke subset on the small machine
    repro-perf --quick --profile 10    # per-cell cProfile top-10 in the report
    repro-perf --baseline benchmarks/perf_baseline.json --check
    repro-perf --baseline benchmarks/perf_baseline.json --update-baseline
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from typing import List, Optional

from repro.exec import SweepExecutor
from repro.perf.bench import (compare_to_baseline, render_ablation,
                              run_bench, run_lease_ablation)
from repro.settings import cli_parent, cli_settings


def _default_out() -> str:
    return f"BENCH_{datetime.date.today().isoformat()}.json"


def _render(report: dict) -> str:
    lines = [f"repro-perf ({report['mode']} mode, calibration "
             f"{report['calibration_loops_per_s'] / 1e6:.2f}M loops/s)"]
    prov = report.get("provenance")
    if prov:
        dirty = "+dirty" if prov.get("git_dirty") else ""
        lines.append(
            f"  provenance: {prov.get('git_sha', 'unknown')[:12]}{dirty}  "
            f"python={prov.get('python')}")
    for label, cell in report["cells"].items():
        lines.append(f"  {label:<12} {cell['wall_s']:8.3f}s  "
                     f"{cell['events']:>9} events  "
                     f"{cell['events_per_s'] / 1e3:8.1f}k ev/s")
        for row in cell.get("profile", []):
            lines.append(
                f"      {row['cumtime_s']:8.3f}s cum  "
                f"{row['tottime_s']:8.3f}s self  "
                f"{row['ncalls']:>9}x  {row['func']}")
    totals = report["totals"]
    lines.append(f"  {'total':<12} {totals['wall_s']:8.3f}s  "
                 f"{totals['events']:>9} events  "
                 f"{totals['events_per_s'] / 1e3:8.1f}k ev/s")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-perf", parents=[cli_parent()],
        description="Simulator throughput benchmark and regression gate; "
                    "--jobs, --journal-dir and --resume apply to "
                    "--lease-ablation only.")
    parser.add_argument("--quick", action="store_true",
                        help="small-machine smoke subset (CI)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="report path (default: BENCH_<date>.json)")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="stored baseline report to compare against")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if throughput regresses vs "
                             "--baseline beyond --tolerance")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed normalized-throughput drop "
                             "(default 0.20)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write this run's report to --baseline")
    parser.add_argument("--profile", nargs="?", type=int, const=15,
                        default=0, metavar="N",
                        help="re-run each cell under cProfile and report "
                             "the top N functions by cumulative time "
                             "(default N=15; timing numbers stay "
                             "profiler-free)")
    parser.add_argument("--lease-ablation", action="store_true",
                        help="run the lease-policy ablation instead of the "
                             "throughput suite: every registered policy x "
                             "RCC/RCC-WO x three workloads, reporting "
                             "renew traffic, stall cycles/op, and events/s "
                             "(Fig. 9-style; --quick for the small machine)")
    parser.add_argument("--intensity", type=float, default=None,
                        help="with --lease-ablation: workload scale factor "
                             "(default: the cells' own, 0.25)")
    args = parser.parse_args(argv)
    settings = cli_settings(parser, args)

    if (args.check or args.update_baseline) and not args.baseline:
        parser.error("--check/--update-baseline require --baseline")
    if args.lease_ablation and (args.check or args.update_baseline
                                or args.profile):
        parser.error("--lease-ablation does not combine with baseline "
                     "or profile modes")

    executor = SweepExecutor(settings, journal_dir=args.journal_dir,
                             resume=args.resume, on_summary=print)
    if args.lease_ablation:
        report = run_lease_ablation(quick=args.quick,
                                    intensity=args.intensity,
                                    executor=executor)
        print(render_ablation(report))
        out = args.out or f"ABLATION_{datetime.date.today().isoformat()}.json"
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {out}")
        return 0

    report = run_bench(quick=args.quick, profile_top=args.profile,
                       executor=executor)
    print(_render(report))

    out = args.out or _default_out()
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report written to {out}")

    if args.update_baseline:
        with open(args.baseline, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if args.check:
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except FileNotFoundError:
            print(f"baseline {args.baseline} not found; run with "
                  "--update-baseline to create it", file=sys.stderr)
            return 2
        failures = compare_to_baseline(report, baseline,
                                       tolerance=args.tolerance)
        if failures:
            print("perf regression check FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"perf regression check passed "
              f"(tolerance {args.tolerance * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
