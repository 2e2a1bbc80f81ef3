"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    rcc-repro fig9                 # one experiment
    rcc-repro all                  # everything
    rcc-repro all --jobs 4         # fan cells out over 4 worker processes
    rcc-repro all --report out.md  # also write a markdown report
    rcc-repro fig9 --intensity 0.5 --seed 7

``--quick`` runs a reduced intensity for smoke testing.

Simulation results are cached under ``.rcc-cache/`` (override with
``--cache-dir`` or ``RCC_CACHE_DIR``, disable with ``--no-cache``), keyed
by a content hash of the full configuration, so a re-run after an
unrelated edit replays from disk instead of resimulating. Parallelism
defaults to ``RCC_JOBS`` (serial if unset); results are identical to a
serial run either way. The ``RCC_*`` variables are read once, at entry
(:mod:`repro.settings`).

A failing experiment no longer aborts the rest: the runner reports it,
continues with the remaining experiments, and exits non-zero at the end.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Tuple

from repro.config import GPUConfig
from repro.exec import ResultCache, SweepExecutor
from repro.settings import Settings, cli_parent, cli_settings
from repro.harness.experiments import ALL_EXPERIMENTS, ExperimentResult, \
    Harness
from repro.harness.tables import render_markdown


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rcc-repro", parents=[cli_parent()],
        description="Regenerate tables/figures from 'Efficient Sequential "
                    "Consistency in GPUs via Relativistic Cache Coherence' "
                    "(HPCA 2017).")
    p.add_argument("experiments", nargs="+",
                   help=f"experiment ids ({', '.join(ALL_EXPERIMENTS)}) "
                        "or 'all'")
    p.add_argument("--intensity", type=float, default=0.25,
                   help="workload scale factor (default 0.25)")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--quick", action="store_true",
                   help="tiny workloads for a fast smoke run")
    p.add_argument("--paper-config", action="store_true",
                   help="use the full Table III machine (16 SMs x 48 warps; "
                        "slow in this Python simulator)")
    p.add_argument("--report", metavar="FILE",
                   help="also write a markdown report to FILE")
    p.add_argument("--no-cache", action="store_true",
                   help="do not read or write the on-disk result cache")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="result cache directory (default: RCC_CACHE_DIR "
                        "or .rcc-cache)")
    p.add_argument("--cell-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-cell wall-clock timeout; a wedged cell gets "
                        "its remaining retry budget in fresh workers "
                        "(default: none)")
    p.add_argument("--sanitize", action="store_true", default=None,
                   help="run every simulation with the coherence-invariant "
                        "sanitizer enabled (aborts on the first violation; "
                        "implies --no-cache so every cell really runs; "
                        "default: RCC_SANITIZE)")
    p.add_argument("--trace-out", metavar="FILE",
                   help="with --sanitize: dump the last coherence events as "
                        "JSON lines to FILE when a violation is caught "
                        "(default: RCC_TRACE_OUT)")
    return p


def select(names: List[str]) -> List[str]:
    if "all" in names:
        return list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        raise SystemExit(f"unknown experiment(s): {unknown}; "
                         f"choose from {list(ALL_EXPERIMENTS)} or 'all'")
    return names


def build_report(results: List[ExperimentResult]) -> str:
    """The markdown report for ``--report``, deterministic in its inputs."""
    parts: List[str] = []
    for result in results:
        parts.append(f"## {result.title}\n")
        parts.append(render_markdown(result.columns, result.rows))
        if result.claims:
            parts.append("\n**Paper vs measured:**\n")
            for desc, (paper, measured) in result.claims.items():
                parts.append(
                    f"- {desc}: paper *{paper}*, measured *{measured}*")
        parts.append("")
    return "\n".join(parts)


def make_executor(args, settings: Settings) -> SweepExecutor:
    """The sweep executor the CLI flags and settings describe."""
    # Sanitizing disables the cache: a cached result would skip the
    # simulation, and with it every invariant check.
    cache = (None if args.no_cache or settings.sanitize
             else ResultCache(settings.cache_dir))
    return SweepExecutor(settings, cache=cache, timeout=args.cell_timeout,
                         on_summary=print)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    settings = cli_settings(parser, args, cache_dir=args.cache_dir,
                            sanitize=args.sanitize,
                            trace_out=args.trace_out)
    cfg = GPUConfig.paper() if args.paper_config else GPUConfig.bench()
    intensity = 0.1 if args.quick else args.intensity
    harness = Harness(cfg=cfg, intensity=intensity, seed=args.seed,
                      executor=make_executor(args, settings))

    succeeded: List[ExperimentResult] = []
    failures: List[Tuple[str, BaseException]] = []
    for name in select(args.experiments):
        start = time.time()
        try:
            result = getattr(harness, ALL_EXPERIMENTS[name])()
        except Exception as exc:  # noqa: BLE001 - report, then continue
            failures.append((name, exc))
            print(f"[{name} FAILED: {type(exc).__name__}: {exc}]",
                  file=sys.stderr)
            print()
            continue
        elapsed = time.time() - start
        print(result.render())
        print(f"[{name} regenerated in {elapsed:.1f}s]")
        print()
        succeeded.append(result)
    if args.report:
        with open(args.report, "w") as f:
            f.write(build_report(succeeded))
        print(f"report written to {args.report}")
    if failures:
        print(f"{len(failures)} experiment(s) failed: "
              + ", ".join(name for name, _ in failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
