"""Golden batteries for RCC, RCC-WO and MESI: payloads and event streams.

``tests/golden/protocol_golden.json`` pins the result payload SHA-256,
cycles and mem_ops of RCC, RCC-WO and MESI across the battery workloads,
every registered lease policy, and two intensities on the small machine.
``tests/golden/event_stream_golden.json`` pins, for RCC, RCC-WO, MESI,
TCS and TCW, the count and SHA-256 of every sanitizer event of one
sanitized run — each transition at its cycle with its fields. A
refactor that keeps both goldens changed *nothing observable*: not
cycles, not stats, not a single payload field or emission point.

If a deliberate protocol behavior change lands later, regenerate with::

    PYTHONPATH=src python tests/golden/regen_protocol_golden.py

and say so in the commit message.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import GPUConfig
from repro.core.lease_policy import available_lease_policies
from repro.exec import SimCell
from tests.conftest import env_run_cell
from tests.golden.regen_protocol_golden import (PAYLOAD_OUT, STREAM_OUT,
                                                event_stream)

with open(PAYLOAD_OUT) as _fh:
    GOLDEN = json.load(_fh)
with open(STREAM_OUT) as _fh:
    STREAMS = json.load(_fh)

assert GOLDEN["kind"] == "protocol-golden" and GOLDEN["schema"] == 1
assert STREAMS["kind"] == "event-stream-golden" and STREAMS["schema"] == 1


def payload_hash(result) -> str:
    """The canonical payload digest the golden file stores."""
    blob = json.dumps(result.to_payload(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def cell_for(key: str) -> SimCell:
    """Rebuild the SimCell a golden key (``RCC/bfs/fixed@0.25``) names."""
    protocol, workload, rest = key.split("/")
    policy, intensity = rest.rsplit("@", 1)
    return SimCell(cfg=GPUConfig.small(), protocol=protocol,
                   workload=workload, intensity=float(intensity), seed=1234,
                   ts_overrides=(("lease_policy", policy),))


@pytest.mark.parametrize("key", sorted(GOLDEN["cells"]))
def test_flat_kernel_bit_identical(key):
    """Named for the retired flat kernel this golden once checked; it
    now pins the only implementation of each protocol."""
    expected = GOLDEN["cells"][key]
    result = env_run_cell(cell_for(key))
    assert result.mem_ops == expected["mem_ops"], \
        f"{key}: mem_ops drifted (workload generation changed)"
    assert result.cycles == expected["cycles"], \
        f"{key}: cycles drifted (protocol timing changed)"
    assert payload_hash(result) == expected["payload_sha256"], \
        f"{key}: result payload differs from the golden"


def test_golden_grid_shape():
    """The golden grid is the full 3 x 4 x policies x 2 cross it claims."""
    keys = GOLDEN["cells"].keys()
    protocols = {k.split("/")[0] for k in keys}
    workloads = {k.split("/")[1] for k in keys}
    policies = {k.split("/")[2].rsplit("@", 1)[0] for k in keys}
    assert protocols == {"RCC", "RCC-WO", "MESI"}
    assert workloads == {"bfs", "stn", "dlb", "lud"}
    assert policies == set(available_lease_policies())
    assert len(keys) == 3 * 4 * len(policies) * 2


@pytest.mark.parametrize("protocol", sorted(STREAMS["streams"]))
def test_sanitizer_event_stream_golden(protocol):
    expected = STREAMS["streams"][protocol]
    count, sha = event_stream(protocol)
    assert count == expected["events"], \
        f"{protocol}: sanitizer emits a different number of events"
    assert sha == expected["sha256"], \
        f"{protocol}: sanitizer event stream differs from the golden"
