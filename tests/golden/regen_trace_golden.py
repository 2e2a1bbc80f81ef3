"""Regenerate ``trace_golden.json`` from the current tree.

The file pins, per workload × intensity × machine, the SHA-256 of every
op ``Workload.generate`` emits — ``(kind, addr, cycles, barrier_id)``,
warp by warp — so any change to trace construction that alters a single
op fails ``tests/test_trace_golden.py``.

Only run this when a *deliberate* generator change lands; commit the
regenerated file in the same change. Usage::

    PYTHONPATH=src python tests/golden/regen_trace_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from typing import Dict, Tuple

from repro.config import GPUConfig
from repro.workloads import HOSTILE_WORKLOADS, WORKLOADS, get_workload

INTENSITIES = (0.25, 1.0)
MACHINES = {"small": GPUConfig.small, "bench": GPUConfig.bench}
SEED = 1234
OUT = os.path.join(os.path.dirname(__file__), "trace_golden.json")


def workload_names() -> Tuple[str, ...]:
    """The twelve Table IV models, then the five hostile generators."""
    return tuple(WORKLOADS) + tuple(sorted(HOSTILE_WORKLOADS))


def trace_digest(workload: str, intensity: float,
                 machine: str) -> Tuple[int, str]:
    """Generate one cell's traces; return the op count and the SHA-256
    over every op's fields, one JSON line per warp."""
    traces = get_workload(workload, intensity, SEED).generate(
        MACHINES[machine]())
    digest = hashlib.sha256()
    n_ops = 0
    for core_traces in traces:
        for trace in core_traces:
            fields = [[op.kind.value, op.addr, op.cycles, op.barrier_id]
                      for op in trace.ops]
            n_ops += len(fields)
            line = json.dumps([trace.core_id, trace.warp_id, fields])
            digest.update(line.encode() + b"\n")
    return n_ops, digest.hexdigest()


def main() -> None:
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except Exception:
        rev = "unknown"
    cells: Dict[str, Dict[str, object]] = {}
    for machine in MACHINES:
        for workload in workload_names():
            for intensity in INTENSITIES:
                n_ops, sha = trace_digest(workload, intensity, machine)
                key = f"{machine}/{workload}@{intensity}"
                cells[key] = {"n_ops": n_ops, "trace_sha256": sha}
                print(f"{key}: {n_ops} ops {sha[:12]}")
    doc = {
        "kind": "trace-golden",
        "schema": 1,
        "note": "SHA-256 of every generated op, captured at commit "
                f"{rev}. Seed {SEED}. Regenerate only for deliberate "
                "generator changes.",
        "cells": cells,
    }
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT} ({len(cells)} cells)")


if __name__ == "__main__":
    main()
