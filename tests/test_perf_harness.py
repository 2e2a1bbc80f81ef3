"""Tests for ``repro-perf``: the lease-policy ablation."""

import json

import pytest

from repro.perf import bench
from repro.perf.cli import main as perf_main


def test_lease_ablation_report_shape():
    report = bench.run_lease_ablation(quick=True, workloads=["bfs"])
    assert report["kind"] == "lease-ablation"
    assert report["schema"] == bench.ABLATION_SCHEMA
    assert set(report["policies"]) == {"fixed", "adaptive", "pc-pred"}
    for policy, cells in report["policies"].items():
        assert set(cells) == {"RCC/bfs", "RCC-WO/bfs"}
        for entry in cells.values():
            assert entry["mem_ops"] > 0 and entry["cycles"] > 0
            assert entry["renew_traffic"] == \
                entry["l2_renew_grants"] + entry["l1_renews"]
            assert entry["events_per_s"] > 0
    rendered = bench.render_ablation(report)
    assert "lease-policy ablation" in rendered
    assert "adaptive" in rendered and "pc-pred" in rendered


def test_ablation_cells_carry_policy_in_overrides():
    cells = bench.ablation_cells(quick=True, workloads=["bfs", "stn"])
    # 3 policies x 2 protocols x 2 workloads, each naming its policy in
    # ts_overrides so the result cache keys them apart.
    assert len(cells) == 12
    assert {c.lease_policy for c in cells} == {"fixed", "adaptive",
                                               "pc-pred"}
    for cell in cells:
        assert ("lease_policy", cell.lease_policy) in cell.ts_overrides
        assert cell.effective_cfg().ts.lease_policy == cell.lease_policy


def test_cli_lease_ablation_quick(tmp_path, capsys):
    out = tmp_path / "ablation.json"
    assert perf_main(["--lease-ablation", "--quick",
                      "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["kind"] == "lease-ablation"
    assert "RCC/dlb" in report["policies"]["fixed"]
    captured = capsys.readouterr()
    assert "lease-policy ablation" in captured.out


def test_bare_cli_exits_2(capsys):
    """Without ``--lease-ablation`` the command is a usage error, not a
    run."""
    with pytest.raises(SystemExit) as exit_:
        perf_main([])
    assert exit_.value.code == 2
    assert "--lease-ablation" in capsys.readouterr().err
