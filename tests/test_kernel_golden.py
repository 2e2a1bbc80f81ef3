"""Golden batteries for RCC, RCC-WO and MESI under the sanitizer:
payloads and event streams.

``test_flat_kernel_bit_identical`` reruns the RCC, RCC-WO and MESI cells
of the 60-cell payload golden (``tests/golden/fixed_policy_golden.json``,
see ``tests/test_lease_golden.py``) on the battery workloads with the
coherence sanitizer armed: every run must pass every invariant, among
them the ``rcc.grant.policy_ceiling`` bound on each lease the paper's
predictor grants, and still reproduce its golden payload byte for byte,
because checking must never change a result.
``tests/golden/event_stream_golden.json`` pins, for RCC, RCC-WO, MESI,
TCS and TCW, the count and SHA-256 of every sanitizer event of one
sanitized run — each transition at its cycle with its fields. A
refactor that keeps both goldens changed *nothing observable*: not
cycles, not stats, not a single payload field or emission point.

If a deliberate protocol behavior change lands later, regenerate with::

    PYTHONPATH=src python tests/golden/regen_fixed_policy_golden.py
    PYTHONPATH=src python tests/golden/regen_protocol_golden.py

and say so in the commit message.
"""

from __future__ import annotations

import json

import pytest

from repro.exec.cells import run_cell
from tests.conftest import ENV
from tests.golden.regen_protocol_golden import STREAM_OUT, event_stream
from tests.test_lease_golden import GOLDEN as PAYLOADS
from tests.test_lease_golden import cell_for, payload_hash

with open(STREAM_OUT) as _fh:
    STREAMS = json.load(_fh)

assert STREAMS["kind"] == "event-stream-golden" and STREAMS["schema"] == 1

BATTERY_PROTOCOLS = {"RCC", "RCC-WO", "MESI"}
BATTERY_WORKLOADS = {"bfs", "stn", "dlb", "lud"}


def battery_key(golden_key: str) -> str:
    """``RCC/bfs@0.25`` -> ``RCC/bfs/fixed@0.25``: battery keys keep the
    policy segment they carried while the battery also ran the
    retired policies; ``fixed`` was the paper's predictor."""
    return golden_key.replace("@", "/fixed@")


#: Battery key -> the 60-cell golden's key for the same cell.
BATTERY = {
    battery_key(key): key for key in PAYLOADS["cells"]
    if key.split("/")[0] in BATTERY_PROTOCOLS
    and key.split("/")[1].rsplit("@", 1)[0] in BATTERY_WORKLOADS}


@pytest.mark.parametrize("key", sorted(BATTERY))
def test_flat_kernel_bit_identical(key):
    """Named for the retired flat kernel this golden once checked; it
    now pins the only implementation of each protocol, sanitized."""
    golden_key = BATTERY[key]
    expected = PAYLOADS["cells"][golden_key]
    result = run_cell(cell_for(golden_key), sanitize=True,
                      trace_out=ENV.trace_out)
    assert result.mem_ops == expected["mem_ops"], \
        f"{key}: mem_ops drifted (workload generation changed)"
    assert result.cycles == expected["cycles"], \
        f"{key}: cycles drifted under the sanitizer"
    assert payload_hash(result) == expected["payload_sha256"], \
        f"{key}: sanitized result payload differs from the golden"


def test_golden_grid_shape():
    """The battery is the full 3 x 4 x 2 cross it claims."""
    keys = BATTERY.keys()
    assert {k.split("/")[0] for k in keys} == BATTERY_PROTOCOLS
    assert {k.split("/")[1] for k in keys} == BATTERY_WORKLOADS
    assert {k.split("/")[2] for k in keys} == {"fixed@0.25", "fixed@1.0"}
    assert len(keys) == 3 * 4 * 2


@pytest.mark.parametrize("protocol", sorted(STREAMS["streams"]))
def test_sanitizer_event_stream_golden(protocol):
    expected = STREAMS["streams"][protocol]
    count, sha = event_stream(protocol)
    assert count == expected["events"], \
        f"{protocol}: sanitizer emits a different number of events"
    assert sha == expected["sha256"], \
        f"{protocol}: sanitizer event stream differs from the golden"
