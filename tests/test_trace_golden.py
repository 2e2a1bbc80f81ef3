"""Trace golden: every generated op of every workload, byte for byte.

``tests/golden/trace_golden.json`` pins, for the twelve Table IV models
and the five hostile generators at intensities 0.25 and 1.0 on the small
and bench machines (seed 1234), the op count and the SHA-256 over each
op's ``(kind, addr, cycles, barrier_id)``. A change to trace
construction that keeps this golden emits exactly the same traces, so
every payload built from them is unchanged too.

If a deliberate generator change lands later, regenerate with::

    PYTHONPATH=src python tests/golden/regen_trace_golden.py

and say so in the commit message.
"""

from __future__ import annotations

import json

import pytest

from tests.golden.regen_trace_golden import (
    INTENSITIES, MACHINES, OUT, trace_digest, workload_names)

with open(OUT) as _fh:
    GOLDEN = json.load(_fh)

assert GOLDEN["kind"] == "trace-golden" and GOLDEN["schema"] == 1


@pytest.mark.parametrize("key", sorted(GOLDEN["cells"]))
def test_trace_bit_identical(key):
    machine, rest = key.split("/")
    workload, intensity = rest.rsplit("@", 1)
    n_ops, sha = trace_digest(workload, float(intensity), machine)
    expected = GOLDEN["cells"][key]
    assert n_ops == expected["n_ops"], f"{key}: op count drifted"
    assert sha == expected["trace_sha256"], f"{key}: trace ops drifted"


def test_golden_covers_every_workload():
    assert len(GOLDEN["cells"]) == \
        len(workload_names()) * len(INTENSITIES) * len(MACHINES) == 68
