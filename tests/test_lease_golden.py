"""Golden-payload regression battery: the 60-cell payload golden.

``tests/golden/fixed_policy_golden.json`` pins the result payload
SHA-256, cycles and mem_ops of all six protocols x five workloads x two
intensities on the small machine, every RCC lease sized by the paper's
§III-E predictor (the file is named for the ``fixed`` lease policy, the
name that predictor carried while the L2 could run others). Recomputing
each cell and comparing payload SHA-256 proves a refactor changed
*nothing observable* — not cycles, not stats, not a single payload field.

If a deliberate behavior change lands later, regenerate the file with::

    PYTHONPATH=src python tests/golden/regen_fixed_policy_golden.py

and say so in the commit message — this battery exists to make silent
behavioral drift impossible, not to freeze the simulator forever.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.config import GPUConfig
from repro.exec import SimCell
from repro.fuzz.cellfile import load_cell, save_cell
from tests.conftest import env_run_cell

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "fixed_policy_golden.json")

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)

assert GOLDEN["kind"] == "fixed-policy-golden" and GOLDEN["schema"] == 1


def payload_hash(result) -> str:
    """The canonical payload digest the golden file stores."""
    blob = json.dumps(result.to_payload(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def cell_for(key: str) -> SimCell:
    """Rebuild the SimCell a golden key (``RCC/bfs@0.25``) names."""
    protocol, rest = key.split("/")
    workload, intensity = rest.rsplit("@", 1)
    return SimCell(cfg=GPUConfig.small(), protocol=protocol,
                   workload=workload, intensity=float(intensity), seed=1234)


@pytest.mark.parametrize("key", sorted(GOLDEN["cells"]))
def test_fixed_policy_bit_identical(key):
    expected = GOLDEN["cells"][key]
    result = env_run_cell(cell_for(key))
    assert result.mem_ops == expected["mem_ops"], \
        f"{key}: mem_ops drifted (workload generation changed)"
    assert result.cycles == expected["cycles"], \
        f"{key}: cycles drifted (timing behavior changed)"
    assert payload_hash(result) == expected["payload_sha256"], \
        f"{key}: result payload differs from the golden"


def test_explicit_fixed_override_matches_default(tmp_path):
    """A ``.cell`` that names the paper's rule explicitly (the top-level
    ``"lease_policy": "fixed"`` of files written while the L2 could run
    other policies) replays the default cell's golden payload."""
    key = "RCC/bfs@0.25"
    base = cell_for(key)
    path = str(tmp_path / "explicit.cell")
    save_cell(path, base, "small")
    with open(path) as fh:
        doc = json.load(fh)
    doc["lease_policy"] = "fixed"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    explicit, _ = load_cell(path)
    assert explicit == base
    assert payload_hash(env_run_cell(explicit)) == \
        GOLDEN["cells"][key]["payload_sha256"]


def test_golden_grid_shape():
    """The golden grid is the full 6x5x2 cross it claims to be."""
    keys = GOLDEN["cells"].keys()
    protocols = {k.split("/")[0] for k in keys}
    workloads = {k.split("/")[1].rsplit("@", 1)[0] for k in keys}
    intensities = {k.rsplit("@", 1)[1] for k in keys}
    assert protocols == {"MESI", "TCS", "TCW", "RCC", "RCC-WO", "SC-IDEAL"}
    assert workloads == {"bfs", "stn", "dlb", "kmn", "lud"}
    assert intensities == {"0.25", "1.0"}
    assert len(keys) == 60
