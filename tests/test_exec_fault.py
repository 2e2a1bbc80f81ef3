"""Fault paths of the sweep executor: hangs, crashes, fallback, CLI.

A wedged or crashing worker must cost a bounded number of attempts
(:class:`~repro.exec.RetryPolicy`), then surface as a clean
:class:`~repro.errors.HarnessError` carrying structured
:class:`~repro.errors.CellFailure` records — never a bare
``BrokenProcessPool`` — and a failing experiment must not abort the rest
of an ``rcc-repro all`` run. One worker death must cost one pool
rebuild, not one isolated pool per innocent sibling cell.

The worker functions live at module level so the fork-based pool can
pickle them by reference.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.errors import FAILURE_KINDS, HarnessError
from repro.exec import RetryPolicy, SweepExecutor
from repro.harness import runner as runner_cli
from tests.conftest import env_settings

#: Fast retry budget for fault tests: 2 attempts, near-zero backoff.
FAST2 = RetryPolicy(max_attempts=2, base_delay=0.01)
FAST3 = RetryPolicy(max_attempts=3, base_delay=0.01)


def _hang_worker(item):
    time.sleep(60)


def _boom_worker(item):
    raise ValueError(f"kaboom {item!r}")


def _die_worker(item):
    os._exit(3)  # kills the pool process outright -> BrokenProcessPool


def _die_if_zero_worker(item):
    if item == 0:
        os._exit(3)
    return item * 2


def _flaky_worker(path):
    if not os.path.exists(path):
        open(path, "w").close()
        raise RuntimeError("first attempt fails")
    return "ok"


def _echo_worker(item):
    return item * 2


def _boom_cell_worker(cell, **settings):
    raise ValueError("injected cell failure")


class TestTimeoutAndRetry:
    def test_hung_worker_times_out_retried_then_harness_error(self):
        ex = SweepExecutor(env_settings(jobs=2), timeout=0.75, retry=FAST2)
        t0 = time.perf_counter()
        with pytest.raises(HarnessError) as err:
            ex.map(_hang_worker, [1], labels=["wedged-cell"])
        assert time.perf_counter() - t0 < 20, "hung worker was not reaped"
        assert ex.last_stats.retries == 1
        assert "wedged-cell" in str(err.value)
        assert "TimeoutError" in str(err.value)
        (failure,) = err.value.failures
        assert failure.kind == "timeout"
        assert failure.attempts == 2

    def test_raising_worker_retried_then_harness_error(self):
        ex = SweepExecutor(env_settings(jobs=2), timeout=30.0, retry=FAST2)
        with pytest.raises(HarnessError) as err:
            ex.map(_boom_worker, ["x"])
        assert ex.last_stats.retries == 1
        assert "kaboom" in str(err.value)
        (failure,) = err.value.failures
        assert failure.kind == "exception"

    def test_dead_worker_not_a_bare_broken_process_pool(self):
        ex = SweepExecutor(env_settings(jobs=2), timeout=30.0, retry=FAST3)
        with pytest.raises(HarnessError) as err:
            ex.map(_die_worker, [1])
        (failure,) = err.value.failures
        # The last attempt ran in an isolated single-worker pool, so the
        # crash is *confirmed* — not collateral "poisoned-pool" damage.
        assert failure.kind == "crash"
        assert failure.attempts == 3

    def test_transient_failure_recovers_on_retry(self, tmp_path):
        sentinel = str(tmp_path / "sentinel")
        ex = SweepExecutor(env_settings(jobs=2), timeout=30.0, retry=FAST2)
        assert ex.map(_flaky_worker, [sentinel]) == ["ok"]
        assert ex.last_stats.retries == 1

    def test_serial_failure_also_wrapped(self):
        ex = SweepExecutor(env_settings(jobs=1), retry=FAST2)
        with pytest.raises(HarnessError) as err:
            ex.map(_boom_worker, ["y"])
        assert ex.last_stats.retries == 1
        assert "kaboom" in str(err.value)
        (failure,) = err.value.failures
        assert failure.kind == "exception"

    def test_healthy_cells_survive_a_failing_sibling(self, tmp_path):
        # map() is all-or-error per batch, but the error must arrive only
        # after every healthy cell had its chance (results are computed
        # before the batch raises).
        ex = SweepExecutor(env_settings(jobs=2), timeout=30.0, retry=FAST2)
        with pytest.raises(HarnessError) as err:
            ex.map(_boom_worker, ["a", "b"])
        assert str(err.value).startswith("2 cell(s) failed")
        assert [f.kind for f in err.value.failures] == ["exception"] * 2

    def test_backoff_is_bounded_exponential(self):
        policy = RetryPolicy(max_attempts=9, base_delay=0.05, max_delay=0.3)
        delays = [policy.delay(k) for k in range(1, 6)]
        assert delays == [0.05, 0.1, 0.2, 0.3, 0.3]


class TestPoolRebuild:
    """One dead worker used to poison every un-collected future and burn
    one isolated single-worker pool per innocent cell (crash
    amplification). Now: rebuild the shared pool once and resubmit."""

    def test_one_crasher_does_not_amplify_pool_builds(self):
        items = [0, 1, 2, 3, 4, 5]
        ex = SweepExecutor(env_settings(jobs=2), timeout=30.0, retry=FAST3)
        with pytest.raises(HarnessError) as err:
            ex.map(_die_if_zero_worker, items)
        # Only the actual crasher surfaces, classified in the taxonomy.
        (failure,) = err.value.failures
        assert failure.kind in ("crash", "poisoned-pool")
        assert failure.kind in FAILURE_KINDS
        # Initial pool + at most 2 rebuilds + 1 isolated retry pool; the
        # old per-sibling amplification would have built ~len(items).
        assert ex.pools_built <= 4, (
            f"{ex.pools_built} pools built for one crasher "
            f"among {len(items)} cells")
        assert ex.last_stats.pool_rebuilds >= 1

    def test_healthy_siblings_complete_despite_crasher(self):
        ex = SweepExecutor(env_settings(jobs=2), timeout=30.0, retry=FAST3)
        with pytest.raises(HarnessError) as err:
            ex.map(_die_if_zero_worker, [0, 1, 2, 3])
        labels = [f.label for f in err.value.failures]
        assert labels == ["item[0]"], (
            f"innocent cells surfaced as failures: {labels}")


class TestWedgedWorkerReaping:
    """``_shutdown_pool(force=True)`` and the isolated retry stage must
    reap wedged worker processes — a timed-out campaign leaks nothing."""

    def _assert_no_leaked_children(self, before, deadline_s=10.0):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < deadline_s:
            leaked = [p for p in multiprocessing.active_children()
                      if p not in before]
            if not leaked:
                return
            time.sleep(0.1)
        assert not leaked, f"leaked worker processes: {leaked}"

    def test_timeout_reaps_wedged_workers(self):
        before = set(multiprocessing.active_children())
        ex = SweepExecutor(env_settings(jobs=2), timeout=0.5, retry=FAST2)
        with pytest.raises(HarnessError):
            ex.map(_hang_worker, [1, 2], labels=["w1", "w2"])
        self._assert_no_leaked_children(before)

    def test_isolated_retry_pool_reaped_on_timeout(self):
        before = set(multiprocessing.active_children())
        ex = SweepExecutor(env_settings(jobs=2), timeout=0.5, retry=FAST3)
        with pytest.raises(HarnessError) as err:
            ex.map(_hang_worker, [1])
        (failure,) = err.value.failures
        assert failure.kind == "timeout"
        assert failure.attempts == 3
        self._assert_no_leaked_children(before)

    def test_crash_then_success_leaves_no_processes(self):
        before = set(multiprocessing.active_children())
        ex = SweepExecutor(env_settings(jobs=2), timeout=30.0, retry=FAST3)
        with pytest.raises(HarnessError):
            ex.map(_die_if_zero_worker, [0, 1, 2])
        self._assert_no_leaked_children(before)


class TestFallback:
    def test_in_process_fallback_when_mp_unavailable(self, monkeypatch):
        import concurrent.futures

        def no_pools(*args, **kwargs):
            raise OSError("process pools unavailable")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pools)
        ex = SweepExecutor(env_settings(jobs=4))
        assert ex.map(_echo_worker, [1, 2, 3]) == [2, 4, 6]
        assert ex.last_stats.mode == "serial-fallback"
        assert ex.pools_built == 0

    def test_serial_is_default(self):
        ex = SweepExecutor(env_settings(jobs=1))
        assert ex.map(_echo_worker, [5]) == [10]
        assert ex.last_stats.mode == "serial"


class TestRunnerCLIFaults:
    def test_failing_experiment_does_not_abort_the_rest(self, monkeypatch,
                                                        capsys):
        from repro.harness.experiments import Harness

        def explode(self):
            raise RuntimeError("injected fig6 failure")

        monkeypatch.setattr(Harness, "fig6", explode)
        rc = runner_cli.main(["fig6", "table1", "--quick", "--no-cache"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "Table I" in captured.out, "later experiment did not run"
        assert "fig6 FAILED" in captured.err
        assert "1 experiment(s) failed: fig6" in captured.err

    def test_cell_failure_reaches_cli_as_harness_error(self, monkeypatch,
                                                       capsys):
        import repro.exec.engine as engine
        monkeypatch.setattr(engine, "run_cell", _boom_cell_worker)
        rc = runner_cli.main(["fig6", "--quick", "--no-cache"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "HarnessError" in captured.err
        assert "BrokenProcessPool" not in captured.err

    def test_all_experiments_ok_exits_zero(self, capsys):
        rc = runner_cli.main(["table1", "table4", "--quick", "--no-cache"])
        assert rc == 0
