"""``repro-perf`` — the lease-policy ablation.

Typical uses::

    repro-perf --lease-ablation              # bench machine -> ABLATION_<date>.json
    repro-perf --lease-ablation --quick      # small machine (CI)
    repro-perf --lease-ablation --jobs 4 --journal-dir J   # parallel, resumable

``--lease-ablation`` is required, so existing invocations keep working
and a bare ``repro-perf`` is a usage error (exit 2). Timing the simulator
is ``bench/run.py``'s job (``bench/ab.py`` for A/B runs).
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from typing import List, Optional

from repro.exec import SweepExecutor
from repro.perf.bench import render_ablation, run_lease_ablation
from repro.settings import cli_parent, cli_settings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-perf", parents=[cli_parent()],
        description="Lease-policy ablation: every registered policy x "
                    "RCC/RCC-WO x three workloads. To time the simulator, "
                    "use bench/run.py and bench/ab.py.")
    parser.add_argument("--lease-ablation", action="store_true",
                        required=True,
                        help="run the lease-policy ablation, reporting "
                             "renew traffic, stall cycles/op, and events/s "
                             "(Fig. 9-style)")
    parser.add_argument("--quick", action="store_true",
                        help="the small machine instead of the bench one")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="report path (default: ABLATION_<date>.json)")
    parser.add_argument("--intensity", type=float, default=None,
                        help="workload scale factor (default: the cells' "
                             "own, 0.25)")
    args = parser.parse_args(argv)
    settings = cli_settings(parser, args)

    executor = SweepExecutor(settings, journal_dir=args.journal_dir,
                             resume=args.resume, on_summary=print)
    report = run_lease_ablation(quick=args.quick, intensity=args.intensity,
                                executor=executor)
    print(render_ablation(report))
    out = args.out or f"ABLATION_{datetime.date.today().isoformat()}.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
