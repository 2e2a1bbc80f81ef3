"""The hostile-lab campaign driver (:mod:`repro.fuzz.workloads`), cell
reproducer files (:mod:`repro.fuzz.cellfile`), and the ``repro-fuzz
--workloads`` CLI surface."""

import json
import os

import pytest

from repro.config import GPUConfig
from repro.errors import InvariantViolation, ReproError
from repro.exec import SweepExecutor
from repro.exec.cells import SimCell
from repro.fuzz import cli
from repro.fuzz.cellfile import (
    CELL_SCHEMA, cell_files, load_cell, replay_cell, save_cell,
)
from repro.fuzz.workloads import (
    BENIGN_CELLS, DEFAULT_PROTOCOLS, _INTENSITIES, HostileCampaignResult,
    HostileRun, _attach_cliffs, _execute_hostile, plan_cells,
    run_hostile_campaign,
)
from repro.workloads import REGIMES, get_workload
from repro.workloads.hostile import select_regimes

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
CFG = GPUConfig.small()


def _tiny_cell(protocol="RCC", spec="rwext:shared_blocks=1", seed=11):
    return SimCell(cfg=CFG, protocol=protocol, workload=spec,
                   intensity=0.25, seed=seed)


# ----------------------------------------------------------------------
# plan_cells
# ----------------------------------------------------------------------
class TestPlanCells:
    def test_deterministic_from_seed(self):
        regimes = select_regimes("all")
        a = plan_cells(regimes, 12, 7, CFG, DEFAULT_PROTOCOLS)
        b = plan_cells(regimes, 12, 7, CFG, DEFAULT_PROTOCOLS)
        assert [(r.name, c) for r, c in a] == [(r.name, c) for r, c in b]

    def test_different_seed_moves_the_grid(self):
        regimes = select_regimes("all")
        a = plan_cells(regimes, 12, 7, CFG, DEFAULT_PROTOCOLS)
        b = plan_cells(regimes, 12, 8, CFG, DEFAULT_PROTOCOLS)
        assert [c for _, c in a] != [c for _, c in b]

    def test_draw_zero_is_the_unmutated_center(self):
        regimes = select_regimes("all")
        planned = plan_cells(regimes, len(regimes), 0, CFG,
                             DEFAULT_PROTOCOLS)
        for regime, cell in planned:
            spec, ts = regime.default_cell_inputs()
            assert cell.workload == spec
            assert dict(cell.ts_overrides) == ts

    def test_round_robin_and_valid_draws(self):
        regimes = select_regimes("all")
        planned = plan_cells(regimes, 13, 3, CFG, DEFAULT_PROTOCOLS)
        assert [r.name for r, _ in planned[:5]] == [r.name for r in regimes]
        for _, cell in planned:
            assert cell.protocol in DEFAULT_PROTOCOLS
            assert cell.intensity in _INTENSITIES
            # Every sampled spec must resolve through the registry.
            get_workload(cell.workload, intensity=cell.intensity,
                         seed=cell.seed)


# ----------------------------------------------------------------------
# The worker
# ----------------------------------------------------------------------
class TestExecuteHostile:
    def test_ok_record_shape(self):
        rec = _execute_hostile(_tiny_cell())
        assert rec["status"] == "ok"
        assert rec["mem_ops"] > 0 and rec["events"] > 0
        assert rec["wall_s"] > 0 and rec["events_per_s"] > 0
        assert "sc_stall_cycles" in rec and "rollovers" in rec

    def test_violation_becomes_a_record(self):
        def boom(cell, **settings):
            raise InvariantViolation("rcc.test", "<ev>", "detail", "cite")
        rec = _execute_hostile(_tiny_cell(), run=boom)
        assert rec["status"] == "violation"
        assert "rcc.test" in rec["message"]

    def test_error_becomes_a_record(self):
        def boom(cell, **settings):
            raise ReproError("engine exploded")
        rec = _execute_hostile(_tiny_cell(), run=boom)
        assert rec["status"] == "error"
        assert "engine exploded" in rec["message"]


# ----------------------------------------------------------------------
# Cliff detection
# ----------------------------------------------------------------------
def _result(records, reference=(), throughput_judged=True):
    """A campaign result: hostile ``records`` as (protocol, record)
    pairs, judged against benign ``reference`` records."""
    def run(regime, protocol, record):
        return HostileRun(regime=regime, cell=_tiny_cell(protocol=protocol),
                          config_name="small", record=record)
    return HostileCampaignResult(
        config_name="small",
        runs=[run("storm", proto, rec) for proto, rec in records],
        reference=[run("benign", "RCC", rec) for rec in reference],
        cliff_ratio=0.125, stall_factor=20.0,
        throughput_judged=throughput_judged)


def _ok(events=1000, wall=1.0, stalls=0, ops=100):
    return {"status": "ok", "wall_s": wall, "events": events,
            "cycles": 1, "mem_ops": ops, "sc_stall_cycles": stalls,
            "rollovers": 0, "events_per_s": events / wall, "message": ""}


class TestAttachCliffs:
    def test_throughput_cliff_below_ratio(self):
        benign = [_ok(events=100, wall=1.0)]  # median 100 events/s
        res = _result([("RCC", _ok(events=1000, wall=1.0))], benign)
        _attach_cliffs(res)  # 1000 events/s -> fine
        assert not res.runs[0].cliffs
        res = _result([("RCC", _ok(events=10, wall=1.0))], benign)
        _attach_cliffs(res)  # 10 events/s < 0.125 * 100
        assert any("throughput cliff" in c for c in res.runs[0].cliffs)

    def test_parallel_campaign_skips_throughput(self):
        res = _result([("RCC", _ok(events=10, wall=1.0))],
                      [_ok(events=100, wall=1.0)], throughput_judged=False)
        _attach_cliffs(res)
        assert not any("throughput" in c for c in res.runs[0].cliffs)

    def test_stall_cliff_above_factor(self):
        benign = [_ok(stalls=200, ops=100)]  # median 2.0 stall/op
        res = _result([("RCC", _ok(stalls=100, ops=100))], benign)
        _attach_cliffs(res)  # 1.0 stall/op vs ceiling 40 -> fine
        assert not res.runs[0].cliffs
        res = _result([("RCC", _ok(stalls=100 * 100, ops=100))], benign)
        _attach_cliffs(res)  # 100 stall/op > 20 * 2.0
        assert any("stall cliff" in c for c in res.runs[0].cliffs)

    def test_reference_medians_skip_failed_benign_cells(self):
        failed = {"status": "error", "wall_s": 0.1, "message": "boom"}
        res = _result([], [_ok(events=100, stalls=100), failed,
                           _ok(events=300, stalls=300)])
        assert res.reference_events_per_s == 200.0
        assert res.reference_stall_per_op == 2.0
        assert not _result([]).reference_events_per_s

    def test_failed_benign_cell_fails_the_campaign(self):
        failed = {"status": "violation", "wall_s": 0.1,
                  "message": "InvariantViolation: boom"}
        res = _result([("RCC", _ok())], [_ok(), failed])
        assert res.violations == [res.reference[1]]
        assert not res.passed
        assert "VIOLATION benign" in res.render()


# ----------------------------------------------------------------------
# The campaign driver
# ----------------------------------------------------------------------
class TestCampaign:
    def test_small_campaign_clean_and_env_restored(self):
        env = dict(os.environ)
        seen = []
        result = run_hostile_campaign(
            config_name="small", regimes="all", runs=5, seed=0,
            on_run=lambda i, r: seen.append((i, r.regime)))
        assert result.passed
        assert len(result.runs) == 5
        assert {r.regime for r in result.runs} == set(REGIMES)
        assert all(r.ok for r in result.runs)
        assert len(seen) == 5
        assert dict(os.environ) == env  # never written
        assert result.throughput_judged  # serial default executor

    def test_campaign_report_round_trips_as_json(self, tmp_path):
        result = run_hostile_campaign(
            config_name="small", regimes="storm", runs=1, seed=0)
        doc = json.loads(json.dumps(result.to_json()))
        assert doc["kind"] == "hostile-campaign"
        assert doc["totals"] == {"runs": 1, "violations": 0, "errors": 0,
                                 "cliffs": 0}
        assert doc["runs"][0]["regime"] == "storm"
        assert "hostile campaign" in result.render()


class TestBenignReference:
    #: (events, cycles, SC stall cycles) of each benign cell. Sanitizing
    #: changes none of them, so a drift here is a simulator change.
    PINS = {
        "MESI/bfs": (5960, 10648, 152133),
        "TCS/dlb": (2522, 5340, 58787),
        "TCW/lud": (1315, 1372, 10171),
        "RCC/bfs": (4774, 9976, 140345),
        "RCC-WO/stn": (3523, 4778, 5980),
    }

    def test_cells(self):
        assert {c.protocol for c in BENIGN_CELLS} == set(DEFAULT_PROTOCOLS)
        for cell in BENIGN_CELLS:
            assert cell.cfg == CFG
            assert (cell.intensity, cell.seed) == (0.25, 1234)

    def test_counts_pinned_and_stall_reference(self):
        result = run_hostile_campaign(config_name="small", regimes="storm",
                                      runs=0, seed=0)
        assert result.passed and result.runs == []
        counts = {r.cell.label: (r.record["events"], r.record["cycles"],
                                 r.record["sc_stall_cycles"])
                  for r in result.reference}
        assert counts == self.PINS
        # The median is TCS/dlb's 58787 stall cycles over 400 ops.
        assert result.reference_stall_per_op == 146.968
        doc = result.to_json()["reference"]
        assert doc["stall_cycles_per_op_median"] == 146.968
        assert set(doc["cells"]) == set(self.PINS)


# ----------------------------------------------------------------------
# Cell files
# ----------------------------------------------------------------------
class TestCellFiles:
    def test_round_trip(self, tmp_path):
        cell = _tiny_cell(spec="storm:hot_blocks=2",
                          seed=99)
        path = str(tmp_path / "x.cell")
        save_cell(path, cell, "small", reason="why",
                  expect={"mem_ops": 123})
        loaded, doc = load_cell(path)
        assert loaded == cell
        assert doc["schema"] == CELL_SCHEMA
        assert doc["reason"] == "why"
        assert doc["expect"] == {"mem_ops": 123}

    def test_ts_overrides_round_trip(self, tmp_path):
        cell = SimCell(cfg=CFG, protocol="RCC", workload="storm",
                       intensity=1.0, seed=1,
                       ts_overrides=(("bits", 10),
                                     ("predictor_enabled", False)))
        path = str(tmp_path / "ts.cell")
        save_cell(path, cell, "small")
        loaded, _ = load_cell(path)
        assert loaded.ts_overrides == cell.ts_overrides
        assert loaded.effective_cfg().ts.bits == 10

    def test_wrong_schema_rejected(self, tmp_path):
        path = str(tmp_path / "bad.cell")
        with open(path, "w") as fh:
            json.dump({"schema": 99, "kind": "hostile-cell"}, fh)
        with pytest.raises(ReproError):
            load_cell(path)
        replay = replay_cell(path)
        assert not replay.passed and "unreadable" in replay.reasons[0]

    def test_drift_detection(self, tmp_path):
        cell = _tiny_cell()
        path = str(tmp_path / "drift.cell")
        save_cell(path, cell, "small", expect={"mem_ops": 1})
        replay = replay_cell(path)
        assert not replay.passed
        assert "drifted" in replay.reasons[0]
        assert "FAIL" in replay.describe()

    def _write_doc(self, path, **fields):
        """A loadable cell document with ``fields`` laid over it."""
        cell = SimCell(cfg=CFG, protocol="RCC", workload="storm",
                       intensity=0.25, seed=3, ts_overrides=(("bits", 12),))
        save_cell(path, cell, "small")
        with open(path) as fh:
            doc = json.load(fh)
        doc.update(fields)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return cell

    def test_unknown_override_is_unreadable(self, tmp_path):
        path = str(tmp_path / "bogus.cell")
        self._write_doc(path, ts_overrides=[["bogus", 3]])
        with pytest.raises(ReproError, match="bogus") as exc_info:
            load_cell(path)
        assert path in str(exc_info.value)
        replay = replay_cell(path)
        assert not replay.passed and "unreadable" in replay.reasons[0]

    def test_directory_replay_continues_past_unreadable_cells(
            self, tmp_path, capsys):
        self._write_doc(str(tmp_path / "a_bogus.cell"),
                        ts_overrides=[["bogus", 3]])
        self._write_doc(str(tmp_path / "b_adaptive.cell"),
                        lease_policy="adaptive")
        save_cell(str(tmp_path / "c_good.cell"), _tiny_cell(), "small")
        assert cli.main(["--replay", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.count("unreadable cell") == 2
        assert f"PASS {tmp_path / 'c_good.cell'}" in out
        assert "3 corpus entries, 2 failing" in out

    def test_cell_files_listing(self, tmp_path):
        (tmp_path / "b.cell").write_text("{}")
        (tmp_path / "a.cell").write_text("{}")
        (tmp_path / "c.trace").write_text("")
        names = [os.path.basename(p) for p in cell_files(str(tmp_path))]
        assert names == ["a.cell", "b.cell"]


# ----------------------------------------------------------------------
# Corpus regression: every archived reproducer must replay clean
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", cell_files(CORPUS),
                         ids=[os.path.basename(p)
                              for p in cell_files(CORPUS)])
def test_corpus_cell_replays_clean(path):
    replay = replay_cell(path)
    assert replay.passed, replay.describe()


def test_corpus_has_the_fuzz_found_reproducers():
    names = {os.path.basename(p) for p in cell_files(CORPUS)}
    # One cell per hostile regime, plus the RCC-WO VI-ack fuzz find.
    assert "hostile_pingpong_rccwo_viack.cell" in names
    assert len(names) >= 6


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _fake_result(runs):
    return HostileCampaignResult(
        config_name="small", runs=runs, reference=[], cliff_ratio=0.125,
        stall_factor=20.0)


class TestCLI:
    def test_workloads_clean_exit_zero(self, monkeypatch, capsys):
        run = HostileRun(regime="storm", cell=_tiny_cell(),
                         config_name="small", record=_ok())
        monkeypatch.setattr(cli, "run_hostile_campaign",
                            lambda **kw: _fake_result([run]))
        assert cli.main(["--workloads"]) == 0
        assert "hostile campaign" in capsys.readouterr().out

    def test_violation_exit_one_and_cell_saved(self, monkeypatch, tmp_path,
                                               capsys):
        bad = HostileRun(
            regime="storm", cell=_tiny_cell(), config_name="small",
            record={"status": "violation", "wall_s": 0.1,
                    "message": "InvariantViolation: boom"})
        monkeypatch.setattr(cli, "run_hostile_campaign",
                            lambda **kw: _fake_result([bad]))
        out_dir = str(tmp_path / "cells")
        assert cli.main(["--workloads", "--save-cells", out_dir]) == 1
        saved = cell_files(out_dir)
        assert len(saved) == 1
        _, doc = load_cell(saved[0])
        assert "boom" in doc["reason"]

    def test_cliffs_report_only_unless_opted_in(self, monkeypatch):
        cliffy = HostileRun(regime="storm", cell=_tiny_cell(),
                            config_name="small", record=_ok(),
                            cliffs=["stall cliff: ..."])
        monkeypatch.setattr(cli, "run_hostile_campaign",
                            lambda **kw: _fake_result([cliffy]))
        assert cli.main(["--workloads"]) == 0
        assert cli.main(["--workloads", "--fail-on-cliff"]) == 1

    def test_report_file_written(self, monkeypatch, tmp_path):
        run = HostileRun(regime="storm", cell=_tiny_cell(),
                         config_name="small", record=_ok())
        monkeypatch.setattr(cli, "run_hostile_campaign",
                            lambda **kw: _fake_result([run]))
        report = str(tmp_path / "report.json")
        assert cli.main(["--workloads", "--report", report]) == 0
        doc = json.load(open(report))
        assert doc["kind"] == "hostile-campaign"

    def test_replay_single_cell_exit_zero(self, capsys):
        cells = cell_files(CORPUS)
        assert cli.main(["--replay", cells[0]]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "1 corpus entries, 0 failing" in out

    def test_bad_regime_is_a_one_line_error(self, capsys):
        assert cli.main(["--workloads", "--regimes", "nope"]) == 2
        assert "repro-fuzz:" in capsys.readouterr().err

    def test_bad_protocol_is_a_one_line_error(self, monkeypatch, capsys):
        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran before --protocols was checked")

        monkeypatch.setattr(SweepExecutor, "map", no_cells)
        assert cli.main(["--workloads", "--runs", "1", "--protocols", "FOO",
                         "--regimes", "storm"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-fuzz: ") and "'FOO'" in line
