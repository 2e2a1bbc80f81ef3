"""Fault paths of the sweep executor: hangs, crashes, fallback, CLI.

A worker that fails once (raises, hangs past the timeout, or dies) must
be absorbed by the retries, with every result back in input order, however
many of a batch's cells fail that way. A cell is charged an attempt only
for its own failure, so a wedged or crashing worker costs at most
:data:`~repro.exec.MAX_ATTEMPTS` runs of that cell and no sibling's, then
surfaces as a clean :class:`~repro.errors.HarnessError` carrying
structured :class:`~repro.errors.CellFailure` records — never a bare
``BrokenProcessPool`` — and a failing experiment must not abort the rest
of an ``rcc-repro all`` run. One worker death must cost one pool
rebuild, not one pool per innocent sibling cell.

The worker functions live at module level so the fork-based pool can
pickle them by reference. The fail-once workers remember their first
call in a sentinel file of their own, which every worker process can
see.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.errors import FAILURE_KINDS, HarnessError
from repro.exec import MAX_ATTEMPTS, SweepExecutor
from repro.harness import runner as runner_cli
from tests.conftest import env_settings


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


def _hang_if_zero_worker(item):
    if item == 0:
        time.sleep(60)
    return item * 2


def _first_call(sentinel):
    """True the first time any process passes ``sentinel`` (a path)."""
    if sentinel is None or os.path.exists(sentinel):
        return False
    open(sentinel, "w").close()
    return True


def _flaky_worker(path):
    if _first_call(path):
        raise RuntimeError("first attempt fails")
    return "ok"


def _crash_once_worker(item):
    x, sentinel = item
    if _first_call(sentinel):
        os._exit(3)
    return x * 2


def _crash_max_attempts_worker(item):
    """Kills its worker on each of its first ``MAX_ATTEMPTS`` runs."""
    x, sentinel = item
    if sentinel is not None:
        for k in range(MAX_ATTEMPTS):
            if _first_call(f"{sentinel}-{k}"):
                os._exit(3)
    return x * 2


def _hang_once_worker(item):
    x, sentinel = item
    if _first_call(sentinel):
        time.sleep(60)
    return x * 2


def _once_items(tmp_path, n, faulty):
    """``n`` items ``(x, sentinel)``; each item in ``faulty`` has a
    sentinel of its own, and the rest have None."""
    return [(x, str(tmp_path / f"sentinel-{x}") if x in faulty else None)
            for x in range(n)]


def _echo_worker(item):
    return item * 2


def _boom_cell_worker(cell, **settings):
    raise ValueError("injected cell failure")


class TestTimeoutAndRetry:
    def test_hung_worker_times_out_retried_then_harness_error(self):
        ex = SweepExecutor(env_settings(jobs=2), timeout=0.75)
        t0 = time.perf_counter()
        with pytest.raises(HarnessError) as err:
            ex.map(_hang_worker, [1], labels=["wedged-cell"])
        assert time.perf_counter() - t0 < 20, "hung worker was not reaped"
        assert ex.last_stats.retries == MAX_ATTEMPTS - 1
        assert "wedged-cell" in str(err.value)
        assert "TimeoutError" in str(err.value)
        (failure,) = err.value.failures
        assert failure.kind == "timeout"
        assert failure.attempts == MAX_ATTEMPTS

    def test_raising_worker_retried_then_harness_error(self):
        ex = SweepExecutor(env_settings(jobs=2), timeout=30.0)
        with pytest.raises(HarnessError) as err:
            ex.map(_boom_worker, ["x"])
        assert ex.last_stats.retries == MAX_ATTEMPTS - 1
        assert "kaboom" in str(err.value)
        (failure,) = err.value.failures
        assert failure.kind == "exception"
        assert failure.attempts == MAX_ATTEMPTS

    def test_dead_worker_not_a_bare_broken_process_pool(self):
        ex = SweepExecutor(env_settings(jobs=2), timeout=30.0)
        with pytest.raises(HarnessError) as err:
            ex.map(_die_worker, [1])
        (failure,) = err.value.failures
        assert failure.kind == "crash"
        assert failure.attempts == MAX_ATTEMPTS

    def test_transient_failure_recovers_on_retry(self, tmp_path):
        for jobs in (1, 2):
            sentinel = str(tmp_path / f"sentinel-{jobs}")
            ex = SweepExecutor(env_settings(jobs=jobs), timeout=30.0)
            assert ex.map(_flaky_worker, [sentinel]) == ["ok"], jobs
            assert ex.last_stats.retries == 1, jobs

    def test_serial_failure_also_wrapped(self):
        ex = SweepExecutor(env_settings(jobs=1))
        with pytest.raises(HarnessError) as err:
            ex.map(_boom_worker, ["y"])
        assert ex.last_stats.retries == MAX_ATTEMPTS - 1
        assert "kaboom" in str(err.value)
        (failure,) = err.value.failures
        assert failure.kind == "exception"

    def test_healthy_cells_survive_a_failing_sibling(self, tmp_path):
        # map() is all-or-error per batch, but the error must arrive only
        # after every healthy cell had its chance (results are computed
        # before the batch raises).
        ex = SweepExecutor(env_settings(jobs=2), timeout=30.0)
        with pytest.raises(HarnessError) as err:
            ex.map(_boom_worker, ["a", "b"])
        assert str(err.value).startswith("2 cell(s) failed")
        assert [f.kind for f in err.value.failures] == ["exception"] * 2


class TestPoolRebuild:
    """One dead worker breaks the shared pool under every uncollected
    cell. The break is charged to nobody unless the cell was alone in
    flight: the first uncollected cell runs alone next, the rest share a
    rebuilt pool, and no cell fails for a sibling's crash."""

    def test_one_crasher_does_not_amplify_pool_builds(self):
        items = [0, 1, 2, 3, 4, 5]
        ex = SweepExecutor(env_settings(jobs=2), timeout=30.0)
        with pytest.raises(HarnessError) as err:
            ex.map(_die_if_zero_worker, items)
        # Only the actual crasher surfaces, classified in the taxonomy.
        (failure,) = err.value.failures
        assert failure.kind == "crash"
        assert failure.kind in FAILURE_KINDS
        # The initial pool plus one per attempt the crasher makes alone;
        # a pool per sibling would have built ~len(items).
        assert ex.pools_built <= 4, (
            f"{ex.pools_built} pools built for one crasher "
            f"among {len(items)} cells")
        assert ex.last_stats.pool_rebuilds >= 1

    def test_crash_once_recovers_in_order(self, tmp_path):
        items = _once_items(tmp_path, 6, faulty={2})
        ex = SweepExecutor(env_settings(jobs=2), timeout=30.0)
        assert ex.map(_crash_once_worker, items) == [0, 2, 4, 6, 8, 10]
        assert ex.last_stats.pool_rebuilds >= 1

    def test_every_cell_crashing_once_recovers_in_order(self, tmp_path):
        # Each break is some cell's first call, so at most one pool per
        # cell is rebuilt. A break must not be charged to the cells that
        # were only in flight with the crasher, or some would reach their
        # last attempt before their first run.
        items = _once_items(tmp_path, 12, faulty=set(range(12)))
        ex = SweepExecutor(env_settings(jobs=2), timeout=30.0)
        assert ex.map(_crash_once_worker, items) == [2 * x
                                                     for x in range(12)]
        assert ex.pools_built <= 13, f"{ex.pools_built} pools built"

    def test_break_with_siblings_in_flight_is_charged_to_nobody(
            self, tmp_path):
        # Item 0's first run breaks the pool under its siblings, so it is
        # not charged; its next MAX_ATTEMPTS - 1 runs break it alone and
        # are, which leaves one more run inside its budget.
        items = _once_items(tmp_path, 4, faulty={0})
        ex = SweepExecutor(env_settings(jobs=2), timeout=30.0)
        assert ex.map(_crash_max_attempts_worker, items) == [0, 2, 4, 6]
        assert ex.last_stats.retries == MAX_ATTEMPTS - 1

    def test_healthy_siblings_complete_despite_crasher(self):
        ex = SweepExecutor(env_settings(jobs=2), timeout=30.0)
        with pytest.raises(HarnessError) as err:
            ex.map(_die_if_zero_worker, [0, 1, 2, 3])
        labels = [f.label for f in err.value.failures]
        assert labels == ["item[0]"], (
            f"innocent cells surfaced as failures: {labels}")

    def test_healthy_siblings_complete_despite_hanger(self):
        ex = SweepExecutor(env_settings(jobs=2), timeout=1.0)
        with pytest.raises(HarnessError) as err:
            ex.map(_hang_if_zero_worker, [0, 1, 2, 3])
        labels = [f.label for f in err.value.failures]
        assert labels == ["item[0]"], (
            f"innocent cells surfaced as failures: {labels}")
        (failure,) = err.value.failures
        assert failure.kind == "timeout"
        assert failure.attempts == MAX_ATTEMPTS


class TestWedgedWorkerReaping:
    """``_shutdown_pool(force=True)`` must reap wedged worker processes,
    whether they hung in a shared batch or alone — a timed-out campaign
    leaks nothing."""

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
        ex = SweepExecutor(env_settings(jobs=2), timeout=0.5)
        with pytest.raises(HarnessError):
            ex.map(_hang_worker, [1, 2], labels=["w1", "w2"])
        self._assert_no_leaked_children(before)

    def test_permanent_hanger_times_out_leaving_no_child(self):
        before = set(multiprocessing.active_children())
        ex = SweepExecutor(env_settings(jobs=2), timeout=0.5)
        with pytest.raises(HarnessError) as err:
            ex.map(_hang_worker, [1])
        (failure,) = err.value.failures
        assert failure.kind == "timeout"
        assert failure.attempts == MAX_ATTEMPTS
        self._assert_no_leaked_children(before)

    def test_hang_once_recovers_in_order(self, tmp_path):
        before = set(multiprocessing.active_children())
        items = _once_items(tmp_path, 4, faulty={1})
        ex = SweepExecutor(env_settings(jobs=2), timeout=1.0)
        t0 = time.perf_counter()
        assert ex.map(_hang_once_worker, items) == [0, 2, 4, 6]
        assert time.perf_counter() - t0 < 20, "hung worker was not reaped"
        assert ex.last_stats.retries >= 1
        self._assert_no_leaked_children(before)

    def test_crash_then_success_leaves_no_processes(self):
        before = set(multiprocessing.active_children())
        ex = SweepExecutor(env_settings(jobs=2), timeout=30.0)
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
