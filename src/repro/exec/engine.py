"""The sweep execution engine: fan independent cells out over processes.

The paper's evaluation is a grid of independent simulations (12 workloads
x 6 protocols per figure), so sweep throughput — not any single run — is
what bounds iteration time. :class:`SweepExecutor` schedules such grids:

* ``Settings.jobs == 1`` (the default) runs serially in-process,
  preserving the historical bit-identical behavior;
* ``jobs > 1`` fans cells out over a ``ProcessPoolExecutor`` (``fork``
  start method where available, so workers inherit the loaded modules and
  the parent's hash seed — a prerequisite for replaying identical runs);
* when process pools are unavailable (restricted environments) the
  engine degrades gracefully to in-process serial execution rather than
  failing;
* each cell gets an optional wall-clock ``timeout`` and bounded
  exponential-backoff retries (:class:`RetryPolicy`; retries run in a
  fresh single-worker pool so a poisoned worker cannot take them down);
* a worker death breaks the shared pool for every un-collected future —
  the engine rebuilds the pool and *resubmits* the survivors as a batch
  instead of burning one isolated single-worker pool per innocent cell;
* a cell that still fails surfaces inside a
  :class:`~repro.errors.HarnessError` (never a raw
  ``BrokenProcessPool``), carrying one structured
  :class:`~repro.errors.CellFailure` per cell classified under the
  ``timeout`` / ``crash`` / ``poisoned-pool`` / ``exception`` taxonomy,
  with every other cell's result unaffected;
* results come back in submission order regardless of completion order,
  so downstream aggregation is order-deterministic.

Layered on top is the content-keyed on-disk result cache
(:mod:`repro.exec.cache`): ``run_cells`` consults it before scheduling
and writes each computed cell to it the moment the cell is collected,
so a sweep killed mid-run re-runs only the cells it had not finished.

Determinism contract: the simulator is a deterministic function of the
cell, and workers are forked replicas evaluating that same function, so
``jobs=N`` produces results identical to serial execution — the
equivalence battery in ``tests/test_exec_parallel.py`` enforces this for
every experiment.
"""

from __future__ import annotations

import functools
import math
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import CellFailure, HarnessError
from repro.exec.cache import ResultCache
from repro.exec.cells import SimCell, cell_key, run_cell
from repro.settings import Settings
from repro.sim.results import SimResult

_TIMEOUT_EXCS = (TimeoutError, FuturesTimeout)


def _timed_call(fn: Callable[[Any], Any], item: Any) -> Tuple[float, Any]:
    """Worker-side wrapper: run one item and report its wall time (module
    level so it pickles by reference into worker processes)."""
    t0 = time.perf_counter()
    out = fn(item)
    return time.perf_counter() - t0, out


def classify_exception(exc: BaseException, isolated: bool = True) -> str:
    """File one cell-level exception under the failure taxonomy.

    ``isolated`` says whether the evidence comes from the cell's own
    isolated single-worker pool (or in-process execution): a broken pool
    observed only as shared-pool collateral is ``poisoned-pool``, while
    a pool the cell broke all by itself is a confirmed ``crash``.
    """
    if isinstance(exc, _TIMEOUT_EXCS):
        return "timeout"
    if isinstance(exc, BrokenExecutor):
        return "crash" if isolated else "poisoned-pool"
    return "exception"


def _percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty, unsorted sample list."""
    ordered = sorted(samples)
    rank = math.ceil(p * len(ordered) / 100.0)
    return ordered[max(rank, 1) - 1]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential-backoff retry budget for failing cells.

    A cell gets ``max_attempts`` total attempts; before retry ``k``
    (1-based count of failures so far) the engine sleeps
    ``min(max_delay, base_delay * 2**(k-1))``. Defaults give three
    attempts with 50ms/100ms pauses — enough to absorb transient faults
    without stalling a sweep behind a deterministic crasher.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0

    def delay(self, failures: int) -> float:
        return min(self.max_delay, self.base_delay * (2 ** (failures - 1)))


@dataclass
class SweepStats:
    """What one ``run_cells``/``map`` invocation did, and how fast."""

    n_cells: int = 0
    n_cached: int = 0
    n_computed: int = 0
    retries: int = 0
    #: Shared-pool rebuilds after a worker death broke the pool.
    pool_rebuilds: int = 0
    wall: float = 0.0
    mode: str = "serial"
    jobs: int = 1
    #: Result-cache traffic attributable to this sweep (deltas of the
    #: cache's cumulative counters); None when no cache was attached.
    cache_hits: Optional[int] = None
    cache_misses: Optional[int] = None
    cache_evictions: Optional[int] = None
    cache_write_errors: Optional[int] = None
    #: Per computed cell wall time, in submission order.
    cell_times: List[float] = field(default_factory=list)
    #: Per computed cell simulation throughput (engine events per second
    #: of wall time), in submission order; only cells whose result exposes
    #: ``events_fired`` (i.e. ``SimResult``) contribute.
    cell_eps: List[float] = field(default_factory=list)

    @property
    def cells_per_second(self) -> float:
        return self.n_cells / self.wall if self.wall > 0 else 0.0

    def record_cell(self, elapsed: float, value: Any) -> None:
        """Account one computed cell: wall time, and events/sec when the
        result carries an engine event count."""
        self.n_computed += 1
        self.cell_times.append(elapsed)
        fired = getattr(value, "events_fired", None)
        if fired and elapsed > 0:
            self.cell_eps.append(fired / elapsed)

    def render(self) -> str:
        """One-line throughput summary printed after each sweep."""
        parts = [f"{self.n_cells} cells"]
        if self.n_cached:
            parts.append(f"{self.n_cached} cached")
        if self.retries:
            parts.append(f"{self.retries} retried")
        if self.pool_rebuilds:
            parts.append(f"{self.pool_rebuilds} pool rebuild(s)")
        head = ", ".join(parts)
        line = (f"[sweep: {head} in {self.wall:.2f}s — "
                f"{self.cells_per_second:.1f} cells/s")
        if self.cell_times:
            p50 = _percentile(self.cell_times, 50)
            p95 = _percentile(self.cell_times, 95)
            line += f"; per-cell p50 {p50 * 1000:.0f}ms p95 {p95 * 1000:.0f}ms"
        if self.cell_eps:
            p50 = _percentile(self.cell_eps, 50)
            p95 = _percentile(self.cell_eps, 95)
            line += (f"; events/s p50 {p50 / 1000:.0f}k"
                     f" p95 {p95 / 1000:.0f}k")
        if self.cache_hits is not None:
            line += (f"; cache {self.cache_hits} hit"
                     f"/{self.cache_misses} miss")
            if self.cache_evictions:
                line += f"/{self.cache_evictions} evicted"
            if self.cache_write_errors:
                line += f"/{self.cache_write_errors} write error(s)"
        line += f"; mode={self.mode} jobs={self.jobs}]"
        return line


#: Per-cell completion callback: ``on_ok(i, value)``, run in the parent
#: as the ``i``-th item's result is collected.
OnOk = Callable[[int, Any], None]


def _ignore(i: int, value: Any) -> None:
    """The default :data:`OnOk`: nothing to do per cell."""


class SweepExecutor:
    """Runs batches of independent work items, optionally in parallel and
    optionally through the on-disk result cache.

    ``settings`` defaults to :meth:`Settings.from_env`. :attr:`run_cell`
    is the default ``worker``; a custom worker that runs cells takes it
    as an argument (``functools.partial(worker, run=executor.run_cell)``).
    """

    def __init__(self, settings: Optional[Settings] = None,
                 cache: Optional[ResultCache] = None,
                 timeout: Optional[float] = None,
                 worker: Callable[[SimCell], SimResult] = None,
                 on_summary: Optional[Callable[[str], None]] = None,
                 retry: Optional[RetryPolicy] = None):
        if settings is None:
            settings = Settings.from_env()
        self.settings = settings
        self.cache = cache
        self.timeout = timeout
        #: :func:`~repro.exec.cells.run_cell` with the settings' sanitizer
        #: options bound (a partial, so it pickles into worker processes).
        self.run_cell = functools.partial(
            run_cell, sanitize=settings.sanitize, trace_out=settings.trace_out)
        self.worker = worker if worker is not None else self.run_cell
        self.on_summary = on_summary
        self.retry = retry if retry is not None else RetryPolicy()
        self.last_stats: Optional[SweepStats] = None
        #: Lifetime count of worker pools this executor constructed —
        #: the crash-amplification regression gate counts these.
        self.pools_built = 0

    # ------------------------------------------------------------------
    # Cell-level entry point (cache-aware)
    # ------------------------------------------------------------------
    def run_cells(self, cells: Sequence[SimCell]) -> List[SimResult]:
        """Run a batch of cells; results in input order.

        Cached cells are replayed from disk; the rest are scheduled on
        the pool (or serially), and each is written back to the cache
        as soon as it is collected, so a sweep killed mid-run keeps
        every cell it finished.
        """
        t0 = time.perf_counter()
        cache = self.cache
        n = len(cells)
        results: List[Optional[SimResult]] = [None] * n
        keys: List[str] = []
        if cache is not None:
            counters0 = (cache.hits, cache.misses, cache.evictions,
                         cache.write_errors)
            keys = [cell_key(c) for c in cells]
            results = [cache.get(key) for key in keys]
        pending = [i for i in range(n) if results[i] is None]

        def store(j: int, value: SimResult) -> None:
            i = pending[j]
            cache.put(keys[i], value, cell={
                "protocol": cells[i].protocol,
                "workload": cells[i].workload,
                "intensity": cells[i].intensity,
                "seed": cells[i].seed,
                "ts_overrides": list(cells[i].ts_overrides),
            })

        computed = self._map([cells[i] for i in pending], self.worker,
                             [cells[i].label for i in pending],
                             on_ok=store if cache is not None else _ignore)
        for i, res in zip(pending, computed):
            results[i] = res

        stats = self.last_stats
        stats.n_cells = n
        stats.n_cached = n - len(pending)
        stats.wall = time.perf_counter() - t0
        if cache is not None:
            stats.cache_hits = cache.hits - counters0[0]
            stats.cache_misses = cache.misses - counters0[1]
            stats.cache_evictions = cache.evictions - counters0[2]
            stats.cache_write_errors = cache.write_errors - counters0[3]
        if self.on_summary is not None:
            self.on_summary(stats.render())
        return results

    # ------------------------------------------------------------------
    # Generic entry point (the fuzz campaigns use this directly)
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Sequence[Any],
            labels: Optional[Sequence[str]] = None) -> List[Any]:
        """Apply ``fn`` to every item with the engine's scheduling policy
        (pool/serial, timeout, bounded backoff retries, HarnessError on
        failure). Results are returned in input order."""
        t0 = time.perf_counter()
        labels = (list(labels) if labels is not None
                  else [f"item[{i}]" for i in range(len(items))])
        results = self._map(items, fn, labels)
        self.last_stats.n_cells = len(items)
        self.last_stats.wall = time.perf_counter() - t0
        if self.on_summary is not None:
            self.on_summary(self.last_stats.render())
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _map(self, items: Sequence[Any], fn: Callable[[Any], Any],
             labels: Sequence[str], on_ok: OnOk = _ignore) -> List[Any]:
        jobs = max(1, self.settings.jobs)
        stats = SweepStats(jobs=jobs)
        self.last_stats = stats
        if not items:
            return []
        if jobs <= 1:
            return self._map_serial(items, fn, labels, stats, on_ok)
        pool = self._make_pool(jobs)
        if pool is None:
            stats.mode = "serial-fallback"
            return self._map_serial(items, fn, labels, stats, on_ok)
        stats.mode = "fork-pool"
        return self._map_pool(pool, items, fn, labels, stats, on_ok)

    def _map_serial(self, items: Sequence[Any], fn: Callable[[Any], Any],
                    labels: Sequence[str], stats: SweepStats,
                    on_ok: OnOk) -> List[Any]:
        out: List[Any] = []
        failures: List[CellFailure] = []
        for idx, (item, label) in enumerate(zip(items, labels)):
            attempts = 0
            last: Optional[BaseException] = None
            done = False
            while attempts < self.retry.max_attempts:
                if attempts:
                    stats.retries += 1
                    time.sleep(self.retry.delay(attempts))
                attempts += 1
                try:
                    elapsed, value = _timed_call(fn, item)
                    done = True
                    break
                except Exception as exc:
                    last = exc
            if done:
                stats.record_cell(elapsed, value)
                out.append(value)
                on_ok(idx, value)
            else:
                failures.append(CellFailure(
                    label, classify_exception(last, isolated=True),
                    attempts, f"{type(last).__name__}: {last}"))
                out.append(None)
        if failures:
            raise HarnessError.from_failures(failures)
        return out

    def _map_pool(self, pool, items: Sequence[Any],
                  fn: Callable[[Any], Any], labels: Sequence[str],
                  stats: SweepStats, on_ok: OnOk) -> List[Any]:
        n = len(items)
        out: List[Any] = [None] * n
        attempts = [0] * n
        broken_rounds = [0] * n
        #: (index, first observed exception) for cells that go to the
        #: isolated retry stage.
        retry_q: List[Tuple[int, BaseException]] = []
        pending = list(range(n))
        current = pool
        wedged = False
        try:
            while pending:
                wedged = False
                futs = []
                broken: List[Tuple[int, BaseException]] = []
                for i in pending:
                    attempts[i] += 1
                    try:
                        futs.append((i, current.submit(
                            _timed_call, fn, items[i])))
                    except BrokenExecutor as exc:
                        # A just-submitted cell killed its worker before
                        # the batch finished submitting; the rest of the
                        # batch joins this round's broken set.
                        broken.append((i, exc))
                for i, fut in futs:
                    try:
                        elapsed, value = fut.result(timeout=self.timeout)
                    except _TIMEOUT_EXCS as exc:
                        wedged = True
                        retry_q.append((i, exc))
                        continue
                    except BrokenExecutor as exc:
                        broken.append((i, exc))
                        continue
                    except Exception as exc:
                        retry_q.append((i, exc))
                        continue
                    stats.record_cell(elapsed, value)
                    out[i] = value
                    on_ok(i, value)
                pending = []
                if broken:
                    # A dead worker poisons every un-collected future in
                    # the shared pool. Rebuild the pool ONCE per breakage
                    # and resubmit the survivors as a batch — not one
                    # isolated single-worker pool per innocent cell.
                    self._shutdown_pool(current, force=wedged)
                    current = None
                    wedged = False
                    # Resubmits stop one attempt short of the budget so
                    # a repeat offender still gets one *isolated* attempt
                    # — that is what upgrades "poisoned-pool" (collateral
                    # damage) to a confirmed "crash".
                    resubmit_budget = max(1, self.retry.max_attempts - 1)
                    for i, exc in broken:
                        broken_rounds[i] += 1
                        if broken_rounds[i] >= resubmit_budget:
                            retry_q.append((i, exc))
                        else:
                            stats.retries += 1
                            pending.append(i)
                    if pending:
                        stats.pool_rebuilds += 1
                        current = self._make_pool(self.settings.jobs)
                        if current is None:
                            # Multiprocessing gave out mid-sweep; the
                            # isolated stage (which degrades to
                            # in-process calls) finishes the job.
                            retry_q.extend(
                                (i, broken[0][1]) for i in pending)
                            pending = []
        finally:
            if current is not None:
                self._shutdown_pool(current, force=wedged)

        failures = self._retry_failed(retry_q, items, fn, labels, attempts,
                                      broken_rounds, out, stats, on_ok)
        if failures:
            raise HarnessError.from_failures(failures)
        return out

    def _retry_failed(self, retry_q, items, fn, labels, attempts,
                      broken_rounds, out, stats: SweepStats,
                      on_ok: OnOk) -> List[CellFailure]:
        """The isolated retry stage: each failed cell gets its remaining
        attempt budget, with exponential backoff between attempts, in a
        *shared* single-worker retry pool. Healthy cells that were only
        collateral damage run back-to-back on the same pool (no
        per-innocent pool builds — the crash-amplification fix); a cell
        that crashes or wedges the retry pool costs exactly one rebuild,
        and its failure is then *confirmed* in isolation."""
        failures: List[CellFailure] = []
        pool = None
        try:
            for i, first_exc in sorted(retry_q, key=lambda pair: pair[0]):
                last = first_exc
                done = False
                isolated_ran = False
                while attempts[i] < self.retry.max_attempts:
                    stats.retries += 1
                    time.sleep(self.retry.delay(attempts[i]))
                    attempts[i] += 1
                    isolated_ran = True
                    try:
                        elapsed, value = None, None
                        if pool is None:
                            pool = self._make_pool(1)
                        if pool is None:  # mp unavailable: in-process
                            elapsed, value = _timed_call(fn, items[i])
                        else:
                            try:
                                fut = pool.submit(_timed_call, fn, items[i])
                                elapsed, value = fut.result(
                                    timeout=self.timeout)
                            except _TIMEOUT_EXCS:
                                self._shutdown_pool(pool, force=True)
                                pool = None
                                raise
                            except BrokenExecutor:
                                # submit() raises too when the pool broke
                                # under the previous cell; either way the
                                # next attempt gets a fresh pool.
                                self._shutdown_pool(pool)
                                pool = None
                                raise
                        done = True
                        break
                    except Exception as exc:
                        last = exc
                if done:
                    stats.record_cell(elapsed, value)
                    out[i] = value
                    on_ok(i, value)
                    continue
                kind = classify_exception(last, isolated=isolated_ran)
                if (kind == "crash" and not isolated_ran
                        and broken_rounds[i] > 0):
                    kind = "poisoned-pool"
                message = f"{type(last).__name__}: {last}"
                if first_exc is not None and first_exc is not last:
                    message += (f" (first attempt: "
                                f"{type(first_exc).__name__}: {first_exc})")
                failures.append(
                    CellFailure(labels[i], kind, attempts[i], message))
        finally:
            if pool is not None:
                self._shutdown_pool(pool)
        return failures

    def _make_pool(self, workers: int):
        """A fork-context process pool, or None when multiprocessing is
        unusable here (missing primitives, sandboxing)."""
        try:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            if "fork" in multiprocessing.get_all_start_methods():
                ctx = multiprocessing.get_context("fork")
            else:  # pragma: no cover - non-fork platforms
                ctx = multiprocessing.get_context()
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
        except Exception:  # restricted environments
            return None
        self.pools_built += 1
        return pool

    @staticmethod
    def _shutdown_pool(pool, force: bool = False) -> None:
        """Shut the pool down; with ``force`` (a cell timed out and its
        worker may be wedged) terminate workers first, since a plain
        shutdown would block on the hung cell forever.

        The worker list must be captured *before* ``shutdown()`` —
        ``ProcessPoolExecutor.shutdown`` drops its ``_processes``
        reference even with ``wait=False``, which is exactly how an
        earlier version of this code leaked wedged workers for the
        remainder of their hung cell."""
        procs = list((getattr(pool, "_processes", None) or {}).values())
        if force:
            for proc in procs:
                try:
                    if proc.is_alive():
                        proc.terminate()
                except Exception:  # pragma: no cover - best-effort
                    pass
            for proc in procs:
                try:
                    proc.join(timeout=5.0)
                    if proc.is_alive():
                        proc.kill()
                        proc.join(timeout=5.0)
                except Exception:  # pragma: no cover - best-effort
                    pass
        pool.shutdown(wait=True)
