"""Tests of the benchmark itself: ``python -m pytest bench/tests -q``.

Each test drives ``bench/run.py --smoke`` (2 cells per workload on the
small machine, one pass) in subprocesses, as a user would.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(bench_dir: Path, out: Path, *args: str, env=None):
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--smoke",
         "--out", str(out), *args],
        capture_output=True, text=True, env=env, timeout=120)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def copy_bench(dest: Path) -> Path:
    """A copy of bench/ (without the tests) under ``dest``."""
    shutil.copytree(BENCH, dest / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    return dest / "bench"


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced smoke run of every workload, started from a parent
    whose environment selects the object kernel."""
    out = tmp_path_factory.mktemp("smoke") / "report.json"
    env = dict(os.environ, RCC_FLAT_KERNEL="0")
    proc, line = run_bench(BENCH, out, env=env)
    assert proc.returncode == 0, proc.stderr
    return line, json.loads(out.read_text())["workloads"]


def test_benchmark_json_matches_spec():
    assert BENCHMARK["paths"] == ["bench"]
    assert BENCHMARK["run_seconds"] == spec.DEFAULT_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == spec.PER_LAYER


def test_every_metric_is_emitted_with_its_unit(smoke, tmp_path):
    line, report = smoke
    assert line["correct"] and line["failed"] == 0
    for workload, result in report.items():
        for name in spec.END_TO_END:
            assert isinstance(result["metrics"][name], (int, float))
        for name, unit in spec.PER_LAYER.items():
            assert line["metrics"][f"{workload}/{name}"]["unit"] == unit
    # --trace 0 on one workload: exactly the end-to-end metrics, unprefixed.
    proc, line = run_bench(BENCH, tmp_path / "e2e.json",
                           "--workload", "sc-miss", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert {k: v["unit"] for k, v in line["metrics"].items()} \
        == spec.END_TO_END
    assert line["metrics"]["run_s"]["value"] > 0


def test_tampered_pin_fails_the_run(tmp_path):
    bench = copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    pins = json.loads((bench / "digests.json").read_text())
    victim = spec.label(spec.cells_for("sc-miss", smoke=True)[0])
    pins["small"][victim]["sha256"] = "0" * 64
    (bench / "digests.json").write_text(json.dumps(pins))
    out = tmp_path / "report.json"
    proc, line = run_bench(bench, out, "--workload", "sc-miss",
                           "--trace", "0")
    assert proc.returncode == 1
    assert not line["correct"] and line["failed"] >= 1
    assert json.loads(out.read_text())["workloads"]["sc-miss"][
        "metrics"]["failed_frac"] > 0


def test_tracing_changes_no_payload(smoke):
    _, report = smoke
    for result in report.values():
        untraced = {spec.label(s["cell"]): s["digest"]
                    for s in result["raw"]["measure"]["passes"][0]}
        traced = {spec.label(s["cell"]): s["digest"]
                  for s in result["raw"]["trace"]["passes"][0]}
        assert traced == untraced


def test_layer_self_times_add_up_to_traced_total(smoke):
    _, report = smoke
    for result in report.values():
        acc = result["per_layer"]["accounting"]
        assert acc["self_sum_s"] == pytest.approx(acc["traced_total_s"],
                                                  rel=0.01)


def test_rcc_environment_does_not_reach_workers(smoke):
    _, report = smoke
    for result in report.values():
        assert result["provenance"]["rcc_env"] == []
        assert result["provenance"]["kernel"] != "object"


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    copy_bench(tmp_path)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sc-miss",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
