"""Tests for the repro-perf benchmark harness and regression gate."""

import json

import pytest

from repro.perf import bench
from repro.perf.cli import main as perf_main
from tests.conftest import ENV, env_run_cell


@pytest.fixture(scope="module")
def quick_report():
    return bench.run_bench(quick=True)


def test_report_structure(quick_report):
    assert quick_report["schema"] == bench.BENCH_SCHEMA
    assert quick_report["mode"] == "quick"
    assert quick_report["provenance"]["settings"] == {
        "jobs": 1, "sanitize": ENV.sanitize, "chaos": None}
    assert quick_report["calibration_loops_per_s"] > 0
    assert len(quick_report["cells"]) == len(bench.quick_cells())
    for label, cell in quick_report["cells"].items():
        assert cell["events"] > 0, label
        assert cell["cycles"] > 0, label
        assert cell["wall_s"] > 0, label
        assert cell["events_per_s"] > 0, label
        assert cell["events_per_s_normalized"] > 0, label
    totals = quick_report["totals"]
    assert totals["events"] == sum(
        c["events"] for c in quick_report["cells"].values())


def test_quick_cells_cover_all_protocol_families():
    protocols = {c.protocol for c in bench.quick_cells()}
    assert {"MESI", "TCS", "TCW", "RCC", "RCC-WO"} <= protocols


def test_compare_identical_reports_pass(quick_report):
    assert bench.compare_to_baseline(quick_report, quick_report) == []


def test_compare_flags_throughput_regression(quick_report):
    slow = json.loads(json.dumps(quick_report))
    label = next(iter(slow["cells"]))
    slow["cells"][label]["events_per_s_normalized"] *= 0.5
    failures = bench.compare_to_baseline(slow, quick_report, tolerance=0.20)
    assert len(failures) == 1 and label in failures[0]
    # ... but a drop inside the band passes.
    slow["cells"][label]["events_per_s_normalized"] = \
        quick_report["cells"][label]["events_per_s_normalized"] * 0.9
    assert bench.compare_to_baseline(slow, quick_report,
                                     tolerance=0.20) == []


def test_compare_flags_event_count_drift(quick_report):
    drifted = json.loads(json.dumps(quick_report))
    label = next(iter(drifted["cells"]))
    drifted["cells"][label]["events"] += 1
    failures = bench.compare_to_baseline(drifted, quick_report)
    assert any("behavior drifted" in f for f in failures)


def test_compare_rejects_mode_mismatch(quick_report):
    other = json.loads(json.dumps(quick_report))
    other["mode"] = "full"
    failures = bench.compare_to_baseline(other, quick_report)
    assert len(failures) == 1 and "mode" in failures[0]


def test_cli_update_then_check_roundtrip(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    out = tmp_path / "bench.json"
    assert perf_main(["--quick", "--out", str(out),
                      "--baseline", str(baseline),
                      "--update-baseline"]) == 0
    assert baseline.exists() and out.exists()
    assert perf_main(["--quick", "--out", str(out),
                      "--baseline", str(baseline), "--check",
                      "--tolerance", "0.90"]) == 0
    captured = capsys.readouterr()
    assert "perf regression check passed" in captured.out


def test_cli_check_missing_baseline_errors(tmp_path):
    assert perf_main(["--quick", "--out", str(tmp_path / "b.json"),
                      "--baseline", str(tmp_path / "missing.json"),
                      "--check"]) == 2


def test_events_fired_in_result_payload():
    cell = bench.quick_cells()[0]
    result = bench._measure(cell, env_run_cell)[1]
    payload = result.to_payload()
    assert payload["payload_version"] >= 2
    assert payload["events_fired"] == result.events_fired > 0


# ----------------------------------------------------------------------
# Lease-policy ablation
# ----------------------------------------------------------------------

def test_lease_ablation_report_shape():
    report = bench.run_lease_ablation(quick=True, workloads=["bfs"])
    assert report["kind"] == "lease-ablation"
    assert set(report["policies"]) == {"fixed", "adaptive", "pc-pred"}
    for policy, cells in report["policies"].items():
        assert set(cells) == {"RCC/bfs", "RCC-WO/bfs"}
        for entry in cells.values():
            assert entry["mem_ops"] > 0 and entry["cycles"] > 0
            assert entry["renew_traffic"] == \
                entry["l2_renew_grants"] + entry["l1_renews"]
            assert entry["events_per_s_normalized"] > 0
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


def test_cli_lease_ablation_rejects_baseline_modes(tmp_path):
    with pytest.raises(SystemExit):
        perf_main(["--lease-ablation", "--check",
                   "--baseline", str(tmp_path / "b.json")])
