"""Regenerate the sanitizer event-stream golden.

``event_stream_golden.json`` pins, per protocol, the count and SHA-256
of every ``Sanitizer.emit`` call of one sanitized run — the same
transitions at the same cycles with the same fields, event for event.
The result payloads are pinned by ``fixed_policy_golden.json``
(``regen_fixed_policy_golden.py``).

Only run this when a *deliberate* protocol behavior change lands; commit
the regenerated files in the same PR as the change. Usage::

    PYTHONPATH=src python tests/golden/regen_protocol_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from typing import Tuple

from repro.config import GPUConfig
from repro.sanitize.sanitizer import Sanitizer
from repro.sim.gpusim import run_simulation
from repro.workloads import get_workload

HERE = os.path.dirname(__file__)

#: The event-stream cell: every SC/WO protocol with a real transition
#: stream, on the small machine.
STREAM_PROTOCOLS = ("RCC", "RCC-WO", "MESI", "TCS", "TCW")
STREAM_WORKLOAD, STREAM_INTENSITY, STREAM_SEED = "stn", 0.75, 11
STREAM_OUT = os.path.join(HERE, "event_stream_golden.json")


def event_stream(protocol: str) -> Tuple[int, str]:
    """Run the sanitized stream cell, teeing every ``Sanitizer.emit``
    call; return the event count and the SHA-256 of the stream (one
    JSON line per event)."""
    digest = hashlib.sha256()
    count = 0
    real_emit = Sanitizer.emit

    def tee(self, kind, unit, unit_id, cycle, addr, **fields):
        nonlocal count
        count += 1
        line = json.dumps([kind, unit, unit_id, cycle, addr, fields],
                          sort_keys=True)
        digest.update(line.encode() + b"\n")
        real_emit(self, kind, unit, unit_id, cycle, addr, **fields)

    Sanitizer.emit = tee
    try:
        cfg = GPUConfig.small()
        wl = get_workload(STREAM_WORKLOAD, intensity=STREAM_INTENSITY,
                          seed=STREAM_SEED)
        run_simulation(cfg, protocol, wl.generate(cfg), STREAM_WORKLOAD,
                       sanitize=True)
    finally:
        Sanitizer.emit = real_emit
    return count, digest.hexdigest()


def _write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def main() -> None:
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except Exception:
        rev = "unknown"
    streams = {}
    for protocol in STREAM_PROTOCOLS:
        count, sha = event_stream(protocol)
        streams[protocol] = {"events": count, "sha256": sha}
        print(f"{protocol}: {count} events, {sha[:12]}")
    _write(STREAM_OUT, {
        "kind": "event-stream-golden",
        "schema": 1,
        "note": "Sanitizer event-stream digests, captured at commit "
                f"{rev}. Small machine, {STREAM_WORKLOAD}@"
                f"{STREAM_INTENSITY}, seed {STREAM_SEED}. Regenerate only "
                "for deliberate behavior changes.",
        "streams": streams,
    })


if __name__ == "__main__":
    main()
