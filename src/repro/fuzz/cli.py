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
litmus programs, hunting invariant violations and performance cliffs
against five benign cells that every campaign runs beside its hostile
draws (see :mod:`repro.fuzz.workloads`).
``--replay`` accepts both corpus formats: ``*.trace`` litmus programs and
``*.cell`` hostile-run reproducers.

Exit status is non-zero when any program fails differential checking or
any hostile run violates an invariant, so the command slots straight into
CI. Cliffs are report-only unless ``--fail-on-cliff``. ``make fuzz`` runs
a long campaign.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.coherence.registry import available_protocols
from repro.config import NAMED_CONFIGS, named_config
from repro.core.lease_policy import available_lease_policies
from repro.errors import ReproError
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
    p.add_argument("--lease-policy", default=None,
                   choices=available_lease_policies(),
                   help="pin one RCC lease policy for every run (litmus "
                        "mode: sets the base config; --workloads: forces "
                        "the policy on every mutation draw instead of "
                        "sampling it)")
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
                        "--regimes, --cliff-ratio)")
    p.add_argument("--runs", type=int, default=10,
                   help="with --workloads: mutation draws, round-robined "
                        "across regimes (default 10)")
    p.add_argument("--regimes", default="all",
                   help="with --workloads: comma-separated hostile regimes "
                        "or 'all' (storm, pingpong, rwext, bursty, thrash)")
    p.add_argument("--cliff-ratio", type=float, default=0.125,
                   help="throughput cliff: events/s below this fraction "
                        "of the benign cells' median (default 0.125)")
    p.add_argument("--stall-factor", type=float, default=20.0,
                   help="stall cliff: SC stall cycles/op above this "
                        "multiple of the benign cells' median (default 20)")
    p.add_argument("--report", metavar="FILE",
                   help="with --workloads: write the full campaign report "
                        "as JSON to FILE")
    p.add_argument("--save-cells", metavar="DIR",
                   help="with --workloads: write violation/cliff "
                        "reproducers as .cell files to DIR")
    p.add_argument("--fail-on-cliff", action="store_true",
                   help="with --workloads: exit non-zero on performance "
                        "cliffs too, not just violations")
    # Crash safety: the chaos battery.
    p.add_argument("--chaos", metavar="SPEC", nargs="?", const="battery",
                   help="with a SPEC (e.g. 'flaky:0.5;seed=7'): run this "
                        "campaign under the deterministic fault plan "
                        "(same as RCC_CHAOS=SPEC); with no SPEC: run the "
                        "chaos battery instead — the executor-contract "
                        "plan matrix plus kill-and-resume round-trips "
                        "for every campaign kind")
    p.add_argument("--chaos-resume-kinds", default="all", metavar="KINDS",
                   help="with bare --chaos: comma-separated campaign "
                        "kinds for the kill-and-resume battery, 'all' "
                        "(cells, litmus, hostile, ablation) or 'none'")
    return p


def _knobs(args) -> FuzzKnobs:
    return FuzzKnobs(
        n_cores=args.cores, warps_per_core=args.warps,
        ops_per_warp=args.ops, n_addrs=args.addrs,
        p_store=args.p_store, p_atomic=args.p_atomic,
        fence_density=args.fence_density, sharing=args.sharing,
        p_compute=args.p_compute)


def _runner(args, settings: Settings) -> DifferentialRunner:
    cfg = named_config(args.config)
    if args.lease_policy:
        import dataclasses
        cfg = cfg.replace(
            ts=dataclasses.replace(cfg.ts, lease_policy=args.lease_policy))
    protocols = (available_protocols() if args.protocols == "all"
                 else [s.strip() for s in args.protocols.split(",") if s.strip()])
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
    protocols = (list(DEFAULT_PROTOCOLS) if args.protocols == "all"
                 else [s.strip() for s in args.protocols.split(",")
                       if s.strip()])

    def progress(i, run):
        if args.verbose:
            status = run.status.upper() if not run.ok else (
                "CLIFF" if run.cliffs else "OK")
            print(f"[{i + 1}] {status} {run.regime} {run.cell.label} "
                  f"seed={run.cell.seed}")

    result = run_hostile_campaign(
        config_name=args.config, regimes=args.regimes, runs=args.runs,
        seed=args.seed, protocols=protocols,
        cliff_ratio=args.cliff_ratio, stall_factor=args.stall_factor,
        executor=_executor(args, settings), on_run=progress,
        lease_policy=args.lease_policy)
    print(result.render())
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(result.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"campaign report written to {args.report}")
    interesting = result.violations + result.errors + result.cliff_runs
    if args.save_cells and interesting:
        os.makedirs(args.save_cells, exist_ok=True)
        for run in interesting:
            reason = (run.record["message"] if not run.ok
                      else "; ".join(run.cliffs))
            expect = ({"mem_ops": run.record["mem_ops"]} if run.ok else {})
            stem = f"hostile_{run.regime}_{run.cell.protocol.lower()}_" \
                   f"{run.cell.seed % 100000:05d}"
            path = os.path.join(args.save_cells, f"{stem}.cell")
            save_cell(path, run.cell, run.config_name, reason=reason,
                      expect=expect)
            print(f"reproducer written to {path}")
    if not result.passed:
        return 1
    if args.fail_on_cliff and result.cliff_runs:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Bare --chaos names the battery, not a fault-plan spec.
    settings = cli_settings(
        parser, args, sanitize=args.sanitize, trace_out=args.trace_out,
        chaos=None if args.chaos == "battery" else args.chaos)
    try:
        return _main(args, settings)
    except (ReproError, ValueError, OSError) as exc:
        # User-input errors (bad protocol, bad knob, missing corpus file)
        # deserve one line, not a traceback.
        print(f"repro-fuzz: {exc}", file=sys.stderr)
        return 2


def _chaos_battery_main(args, settings: Settings) -> int:
    """Bare ``--chaos``: the contract battery + kill-and-resume trips."""
    from repro.chaos.campaign import CHILD_KINDS, run_chaos_campaign

    raw = args.chaos_resume_kinds
    if raw == "all":
        kinds: List[str] = list(CHILD_KINDS)
    elif raw == "none":
        kinds = []
    else:
        kinds = [s.strip() for s in raw.split(",") if s.strip()]
        unknown = [k for k in kinds if k not in CHILD_KINDS]
        if unknown:
            print(f"repro-fuzz: unknown resume kind(s) {unknown}; choose "
                  f"from {', '.join(CHILD_KINDS)}", file=sys.stderr)
            return 2
    outcomes = run_chaos_campaign(kill_resume=kinds,
                                  sanitize=settings.sanitize)
    failed = [o for o in outcomes if not o.ok]
    print(f"[chaos battery: {len(outcomes)} scenario(s), "
          f"{len(failed)} failing]")
    return 1 if failed else 0


def _executor(args, settings: Settings) -> SweepExecutor:
    return SweepExecutor(settings, journal_dir=args.journal_dir,
                         resume=args.resume)


def _main(args, settings: Settings) -> int:
    if args.chaos == "battery":
        return _chaos_battery_main(args, settings)
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
                          executor=_executor(args, settings))
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
