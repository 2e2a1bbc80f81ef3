"""``repro-fuzz``: command-line differential and workload-knob fuzzing.

Usage::

    repro-fuzz --seed 0 --programs 200            # default campaign
    repro-fuzz --programs 50 --fence-density 0.5  # fence-heavy mix
    repro-fuzz --protocols RCC,MESI --addrs 1     # single-block contention
    repro-fuzz --replay tests/corpus              # replay a corpus
    repro-fuzz --programs 1000 --save-failing out/  # archive reproducers

    repro-fuzz --workloads --runs 25              # hostile-lab campaign
    repro-fuzz --workloads --regimes storm,thrash --save-cells tests/corpus

With ``--workloads`` the fuzzer mutates hostile-workload knobs instead of
litmus programs, hunting invariant violations and simulator errors (see
:mod:`repro.fuzz.workloads`).
``--replay`` accepts both corpus formats: ``*.trace`` litmus programs and
``*.cell`` hostile-run reproducers.

Exit status is non-zero when any program fails differential checking or
any hostile run violates an invariant or raises a simulator error, so the
command slots straight into CI. ``make fuzz`` runs a long campaign.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.coherence.registry import available_protocols
from repro.config import NAMED_CONFIGS, named_config
from repro.errors import ConfigError, ReproError
from repro.exec import SweepExecutor
from repro.fuzz.cellfile import cell_files, replay_cell, save_cell
from repro.fuzz.corpus import corpus_files, load_program, save_program
from repro.fuzz.differential import (
    DifferentialRunner, run_campaign,
)
from repro.fuzz.generator import FuzzKnobs
from repro.fuzz.workloads import DEFAULT_PROTOCOLS, run_hostile_campaign
from repro.settings import Settings, cli_parent, cli_settings


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-fuzz", parents=[cli_parent()],
        description="Differential litmus fuzzing: run randomized programs "
                    "under every coherence protocol and cross-check SC "
                    "protocols against the witness checker and an SC "
                    "interleaving oracle.")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; program i uses seed+i (default 0)")
    p.add_argument("--programs", type=int, default=200,
                   help="number of programs to generate (default 200)")
    p.add_argument("--protocols", default="all",
                   help="comma-separated protocol list, or 'all' "
                        f"({', '.join(available_protocols())})")
    p.add_argument("--config", choices=sorted(NAMED_CONFIGS),
                   default="small",
                   help="base machine configuration (default small)")
    # Generator knobs.
    p.add_argument("--cores", type=int, default=2)
    p.add_argument("--warps", type=int, default=1,
                   help="warps per core (default 1)")
    p.add_argument("--ops", type=int, default=6,
                   help="memory ops per warp (default 6)")
    p.add_argument("--addrs", type=int, default=2,
                   help="address-pool size in blocks (default 2)")
    p.add_argument("--p-store", type=float, default=0.35)
    p.add_argument("--p-atomic", type=float, default=0.05)
    p.add_argument("--fence-density", type=float, default=0.0,
                   help="P(fence after each mem op), 0..1 (default 0)")
    p.add_argument("--sharing", choices=["uniform", "hot", "private"],
                   default="uniform")
    p.add_argument("--p-compute", type=float, default=0.0,
                   help="P(compute padding before each mem op)")
    # Failure handling.
    p.add_argument("--no-shrink", action="store_true",
                   help="keep failing programs at full size")
    p.add_argument("--save-failing", metavar="DIR",
                   help="write shrunk reproducers as corpus files to DIR")
    # Replay mode.
    p.add_argument("--replay", metavar="PATH", nargs="+",
                   help="replay corpus files/directories instead of "
                        "generating programs")
    p.add_argument("--verbose", "-v", action="store_true",
                   help="print a line per program")
    p.add_argument("--sanitize", action="store_true", default=None,
                   help="run every simulation with the coherence-invariant "
                        "sanitizer; a violation fails the program "
                        "(default: RCC_SANITIZE)")
    p.add_argument("--trace-out", metavar="FILE",
                   help="with --sanitize: dump the last coherence events "
                        "as JSON lines to FILE on a violation "
                        "(default: RCC_TRACE_OUT)")
    # Workload-knob fuzzing (the hostile lab).
    p.add_argument("--workloads", action="store_true",
                   help="fuzz hostile-workload knobs instead of litmus "
                        "programs (sanitizer always on; see --runs, "
                        "--regimes)")
    p.add_argument("--runs", type=int, default=10,
                   help="with --workloads: mutation draws, round-robined "
                        "across regimes (default 10)")
    p.add_argument("--regimes", default="all",
                   help="with --workloads: comma-separated hostile regimes "
                        "or 'all' (storm, pingpong, rwext, bursty, thrash)")
    p.add_argument("--report", metavar="FILE",
                   help="with --workloads: write the full campaign report "
                        "as JSON to FILE")
    p.add_argument("--save-cells", metavar="DIR",
                   help="with --workloads: write violation/error "
                        "reproducers as .cell files to DIR")
    return p


def _knobs(args) -> FuzzKnobs:
    return FuzzKnobs(
        n_cores=args.cores, warps_per_core=args.warps,
        ops_per_warp=args.ops, n_addrs=args.addrs,
        p_store=args.p_store, p_atomic=args.p_atomic,
        fence_density=args.fence_density, sharing=args.sharing,
        p_compute=args.p_compute)


def _protocols(spec: str, default: Sequence[str]) -> List[str]:
    """The ``--protocols`` list: ``default`` for 'all', else the names it
    lists. A list that names no protocol is a :class:`ConfigError`."""
    if spec == "all":
        return list(default)
    names = [s.strip() for s in spec.split(",") if s.strip()]
    if not names:
        raise ConfigError(f"--protocols {spec!r} names no protocol")
    return names


def _runner(args, settings: Settings) -> DifferentialRunner:
    cfg = named_config(args.config)
    protocols = _protocols(args.protocols, available_protocols())
    return DifferentialRunner(cfg=cfg, protocols=protocols,
                              sanitize=settings.sanitize,
                              trace_out=settings.trace_out)


def _replay(args, runner: DifferentialRunner) -> int:
    """Replay a mixed corpus: litmus ``.trace`` programs through the
    differential runner, hostile ``.cell`` reproducers through the
    sanitized simulator."""
    paths: List[str] = []
    for p in args.replay:
        if os.path.isdir(p):
            paths.extend(corpus_files(p))
            paths.extend(cell_files(p))
        else:
            paths.append(p)
    if not paths:
        print("no corpus files found", file=sys.stderr)
        return 2
    failed = 0
    for path in sorted(paths):
        if path.endswith(".cell"):
            replay = replay_cell(path)
            print(replay.describe())
            if not replay.passed:
                failed += 1
            continue
        program = load_program(path)
        verdict = runner.check_program(program)
        status = "PASS" if verdict.passed else "FAIL"
        print(f"{status} {path} ({program.n_ops} ops, "
              f"{len(program.warps)} warps)")
        if not verdict.passed:
            failed += 1
            for reason in verdict.failures:
                print(f"  {reason}")
        elif args.verbose:
            print(program.pretty())
    print(f"[replayed {len(paths)} corpus entries, {failed} failing]")
    return 1 if failed else 0


def _workloads_main(args, settings: Settings) -> int:
    """The ``--workloads`` mode: one hostile-lab fuzz campaign."""
    protocols = _protocols(args.protocols, DEFAULT_PROTOCOLS)

    def progress(i, run):
        if args.verbose:
            print(f"[{i + 1}] {run.status.upper()} {run.regime} "
                  f"{run.cell.label} seed={run.cell.seed}")

    result = run_hostile_campaign(
        config_name=args.config, regimes=args.regimes, runs=args.runs,
        seed=args.seed, protocols=protocols,
        executor=SweepExecutor(settings), on_run=progress)
    print(result.render())
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(result.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"campaign report written to {args.report}")
    failed = result.violations + result.errors
    if args.save_cells and failed:
        os.makedirs(args.save_cells, exist_ok=True)
        for run in failed:
            stem = f"hostile_{run.regime}_{run.cell.protocol.lower()}_" \
                   f"{run.cell.seed % 100000:05d}"
            path = os.path.join(args.save_cells, f"{stem}.cell")
            save_cell(path, run.cell, run.config_name,
                      reason=run.record["message"])
            print(f"reproducer written to {path}")
    return 0 if result.passed else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    settings = cli_settings(parser, args, sanitize=args.sanitize,
                            trace_out=args.trace_out)
    try:
        return _main(args, settings)
    except (ReproError, ValueError, OSError) as exc:
        # User-input errors (bad protocol, bad knob, missing corpus file)
        # deserve one line, not a traceback.
        print(f"repro-fuzz: {exc}", file=sys.stderr)
        return 2


def _main(args, settings: Settings) -> int:
    if args.workloads:
        return _workloads_main(args, settings)
    runner = _runner(args, settings)
    if args.replay:
        return _replay(args, runner)

    knobs = _knobs(args)
    knobs.validate()

    def progress(i, verdict):
        if args.verbose:
            status = "PASS" if verdict.passed else "FAIL"
            print(f"[{i + 1}/{args.programs}] {status} "
                  f"{verdict.program.name}")

    result = run_campaign(runner, seed=args.seed, n_programs=args.programs,
                          knobs=knobs, shrink=not args.no_shrink,
                          on_program=progress,
                          executor=SweepExecutor(settings))
    print(result.render())
    for report in result.failures:
        print()
        print(report.describe())
    if args.save_failing and result.failures:
        os.makedirs(args.save_failing, exist_ok=True)
        for report in result.failures:
            program = report.shrunk or report.program
            path = os.path.join(args.save_failing, f"{program.name}.trace")
            save_program(path, program,
                         comments=[f"reasons: {'; '.join(report.reasons)}"])
            print(f"reproducer written to {path}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
