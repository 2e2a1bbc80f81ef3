"""Regenerate ``fixed_policy_golden.json`` from the current tree.

Only run this when a *deliberate* behavior change lands; the whole point
of the golden battery is that this file is regenerated knowingly, never
as a side effect. Usage::

    PYTHONPATH=src python tests/golden/regen_fixed_policy_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess

from repro.config import GPUConfig, PROTOCOLS
from repro.exec import SimCell, run_cell

WORKLOADS = ("bfs", "stn", "dlb", "kmn", "lud")
INTENSITIES = (0.25, 1.0)
SEED = 1234
OUT = os.path.join(os.path.dirname(__file__), "fixed_policy_golden.json")


def main() -> None:
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except Exception:
        rev = "unknown"
    cells = {}
    for protocol in sorted(PROTOCOLS):
        for workload in WORKLOADS:
            for intensity in INTENSITIES:
                cell = SimCell(cfg=GPUConfig.small(), protocol=protocol,
                               workload=workload, intensity=intensity,
                               seed=SEED)
                res = run_cell(cell)
                blob = json.dumps(res.to_payload(), sort_keys=True)
                key = f"{protocol}/{workload}@{intensity}"
                cells[key] = {
                    "payload_sha256": hashlib.sha256(
                        blob.encode()).hexdigest(),
                    "cycles": res.cycles,
                    "mem_ops": res.mem_ops,
                }
                print(f"{key}: {cells[key]['payload_sha256'][:12]}")
    doc = {
        "kind": "fixed-policy-golden",
        "schema": 1,
        "note": "Payload hashes of all six protocols, "
                f"captured at commit {rev}. Small machine, seed {SEED}. "
                "Regenerate only for deliberate behavior changes.",
        "cells": cells,
    }
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT} ({len(cells)} cells)")


if __name__ == "__main__":
    main()
