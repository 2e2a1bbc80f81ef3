"""Tests for the experiment harness, table rendering, and the CLI."""

import pytest

from repro.config import GPUConfig
from repro.harness.complexity import PAPER_TABLE_V, implementation_states, \
    table_v_rows
from repro.harness.experiments import ALL_EXPERIMENTS, ExperimentResult, \
    Harness
from repro.harness.runner import build_parser, build_report, main, select
from repro.harness.tables import fmt, render_markdown, render_table


@pytest.fixture(scope="module")
def harness():
    # Tiny machine + tiny intensity: the harness logic, not the numbers.
    return Harness(cfg=GPUConfig.small(), intensity=0.1)


class TestTables:
    def test_fmt(self):
        assert fmt(3.14159) == "3.142"
        assert fmt(1234.5) == "1234.5"
        assert fmt("x") == "x"
        assert fmt(7) == "7"

    def test_render_table_alignment(self):
        out = render_table(["a", "long_column"], [[1, 2], [333, 4]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "long_column" in lines[1]
        assert len(lines) == 5

    def test_render_markdown(self):
        out = render_markdown(["x", "y"], [[1, 2.5]])
        assert out.splitlines()[0] == "| x | y |"
        assert "| 1 | 2.500 |" in out


class TestComplexity:
    def test_paper_numbers(self):
        assert PAPER_TABLE_V["RCC"]["l1_transitions"] == 33
        assert PAPER_TABLE_V["RCC"]["l2_transitions"] == 14
        assert PAPER_TABLE_V["MESI"]["l1_transitions"] == 81

    def test_implementation_matches_paper_state_counts(self):
        impl = implementation_states()["RCC"]
        paper = PAPER_TABLE_V["RCC"]
        for key in impl:
            assert impl[key] == paper[key]

    def test_rows_shape(self):
        rows = table_v_rows()
        assert len(rows) == 4
        assert all(len(r) == 5 for r in rows)


class TestHarness:
    def test_run_is_cached(self, harness):
        a = harness.run("RCC", "dlb")
        b = harness.run("RCC", "dlb")
        assert a is b

    def test_ts_overrides_not_conflated(self, harness):
        a = harness.run("RCC", "dlb")
        b = harness.run("RCC", "dlb", ts_overrides={"renew_enabled": False})
        assert a is not b
        assert b.l2_renew_grants == 0

    def test_static_tables(self, harness):
        for name in ("table1", "table3", "table4", "table5"):
            exp = getattr(harness, name)()
            assert exp.rows
            assert exp.render()

    def test_fig6_runs_on_small_machine(self, harness):
        exp = harness.fig6()
        assert len(exp.rows) == 12
        assert set(ALL_EXPERIMENTS) >= {"fig1", "fig9", "table5"}

    def test_experiment_result_render(self):
        exp = ExperimentResult("x", "Title", ["a", "b"])
        exp.add_row(1, 2)
        exp.claim("thing", "10%", "12%", True)
        exp.claim("other", "5%", "-3%", False)
        exp.notes.append("a note")
        text = exp.render()
        assert "Title" in text and "paper 10%" in text and "a note" in text
        assert "thing: paper 10% | measured 12% | holds: yes" in text
        assert "other: paper 5% | measured -3% | holds: NO" in text


class TestRunnerCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig6"])
        assert args.experiments == ["fig6"]
        assert args.intensity == 0.25

    def test_select_all(self):
        assert select(["all"]) == list(ALL_EXPERIMENTS)

    def test_select_unknown_exits(self):
        with pytest.raises(SystemExit):
            select(["fig99"])

    def test_main_static_table(self, capsys, tmp_path):
        report = tmp_path / "r.md"
        rc = main(["table1", "table4", "--quick",
                   "--report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert report.read_text().startswith("## Table I")

    def test_report_without_claims_has_no_summary(self):
        exp = ExperimentResult("t", "T", ["x"])
        exp.add_row(1)
        assert build_report([exp]) == "## T\n\n| x |\n|---|\n| 1 |\n"

    def test_report_summary_shows_each_verdict(self):
        a = ExperimentResult("a", "A", ["x"])
        a.claim("holding shape", "1", "2", True)
        b = ExperimentResult("b", "B", ["x"])
        b.claim("broken shape", "3", "4", False)
        report = build_report([a, b])
        assert report.startswith("## Summary of claims\n")
        assert "| holding shape | 1 | 2 | yes |" in report
        assert "| broken shape | 3 | 4 | NO |" in report
        assert "- broken shape: paper *3*, measured *4*, holds: NO" in report

    @pytest.mark.parametrize("holds,rc", [(True, 0), (False, 1)])
    def test_claim_verdict_sets_exit_code(self, monkeypatch, capsys, holds,
                                          rc):
        def table1(self):
            exp = ExperimentResult("table1", "Table I - stub", ["a"])
            exp.claim("stub shape", "paper", "measured", holds)
            return exp

        monkeypatch.setattr(Harness, "table1", table1)
        assert main(["table1", "table4", "--quick", "--no-cache"]) == rc
        captured = capsys.readouterr()
        assert "Table IV" in captured.out, "later experiment did not run"
        assert ("[claim broken: table1: stub shape]" in captured.err) \
            == (not holds)
