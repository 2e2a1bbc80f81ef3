"""The sweep execution engine: fan independent cells out over processes.

The paper's evaluation is a grid of independent simulations (12 workloads
x 6 protocols per figure), so sweep throughput — not any single run — is
what bounds iteration time. :class:`SweepExecutor` schedules such grids:

* ``Settings.jobs == 1`` (the default) runs in-process, preserving the
  historical bit-identical behavior; ``jobs > 1`` fans cells out over a
  ``ProcessPoolExecutor`` (``fork`` start method where available, so
  workers inherit the loaded modules and the parent's hash seed — a
  prerequisite for replaying identical runs); when process pools are
  unavailable (restricted environments) the engine runs in-process
  rather than failing.
* One scheduling loop serves both. It keeps two queues: ``batch``, cells
  that share the ``jobs``-wide pool (at the start, every cell), and
  ``solo``, cells that run with nothing else in flight. Results are
  collected in submission order, with an optional per-cell wall-clock
  ``timeout``; in-process, the call itself is made at collection.
* A cell is charged an attempt only for its own failure: it raised; it
  timed out while it was the future being waited on (the pool dispatches
  in order, so every earlier cell had finished); or it broke the pool
  while it was the only cell not yet collected. A charged cell re-runs
  in ``solo`` until it has used :data:`MAX_ATTEMPTS` runs, then becomes
  a :class:`~repro.errors.CellFailure`. Cells are deterministic, so a
  re-run does not wait first.
* A pool break with several cells in flight charges nobody: the first
  uncollected cell moves to ``solo``, the rest go back to ``batch``, and
  the pool is rebuilt. A timeout force-kills the pool; the waited-on cell
  is charged and the uncollected rest go back to ``batch`` uncharged.
  So a cell never fails because of a sibling.
* Failed cells surface together, after every other cell has run, inside
  one :class:`~repro.errors.HarnessError` (never a raw
  ``BrokenProcessPool``) whose ``CellFailure`` records carry a kind from
  the ``timeout`` / ``crash`` / ``exception`` taxonomy.
* Results come back in submission order regardless of completion order,
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
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CellFailure, HarnessError
from repro.exec.cache import ResultCache
from repro.exec.cells import SimCell, cell_key, run_cell
from repro.settings import Settings
from repro.sim.results import SimResult

_TIMEOUT_EXCS = (TimeoutError, FuturesTimeout)
#: What collecting a run raises when its pool is broken or wedged.
_POOL_LOST = (BrokenExecutor,) + _TIMEOUT_EXCS

#: Runs a cell gets before it becomes a ``CellFailure``. Only a cell's own
#: failure uses one up (see the module docstring).
MAX_ATTEMPTS = 3


def _timed_call(fn: Callable[[Any], Any], item: Any) -> Tuple[float, Any]:
    """Worker-side wrapper: run one item and report its wall time (module
    level so it pickles by reference into worker processes)."""
    t0 = time.perf_counter()
    out = fn(item)
    return time.perf_counter() - t0, out


def classify_exception(exc: BaseException) -> str:
    """File the exception of a cell's last charged run under the failure
    taxonomy."""
    if isinstance(exc, _TIMEOUT_EXCS):
        return "timeout"
    if isinstance(exc, BrokenExecutor):
        return "crash"
    return "exception"


def _percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty, unsorted sample list."""
    ordered = sorted(samples)
    rank = math.ceil(p * len(ordered) / 100.0)
    return ordered[max(rank, 1) - 1]


@dataclass
class SweepStats:
    """What one ``run_cells``/``map`` invocation did, and how fast."""

    n_cells: int = 0
    n_cached: int = 0
    n_computed: int = 0
    #: Re-runs of cells charged with their own failure.
    retries: int = 0
    #: Pool rebuilds after a worker death or a timeout took the pool down.
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
                 on_summary: Optional[Callable[[str], None]] = None):
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
        (pool or in-process, timeout, retries of a cell's own failures,
        HarnessError on failure). Results are returned in input order."""
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
        """The scheduling loop; the module docstring states its rules."""
        jobs = max(1, self.settings.jobs)
        stats = SweepStats(jobs=jobs)
        self.last_stats = stats
        if not items:
            return []
        out: List[Any] = [None] * len(items)
        charged = [0] * len(items)
        failed: Dict[int, CellFailure] = {}
        batch = list(range(len(items)))
        solo: List[int] = []
        pool = self._make_pool(jobs) if jobs > 1 else None
        pooled = pool is not None
        if jobs > 1:
            stats.mode = "fork-pool" if pooled else "serial-fallback"
        try:
            while batch or solo:
                run, batch = batch or [solo.pop(0)], []
                if pooled and pool is None:
                    # A pool that cannot be rebuilt leaves the rest of the
                    # sweep to in-process runs.
                    pool = self._make_pool(jobs)
                    pooled = pool is not None
                    if pooled:
                        stats.pool_rebuilds += 1
                results = [self._submit(pool, fn, items[i]) for i in run]
                for k, (i, result) in enumerate(zip(run, results)):
                    try:
                        elapsed, value = result()
                    except Exception as exc:
                        rest = run[k + 1:]
                        if isinstance(exc, BrokenExecutor) and rest:
                            # Several cells were in flight, so the break
                            # is nobody's for sure: the first runs alone.
                            solo.append(i)
                        else:
                            charged[i] += 1
                            if charged[i] < MAX_ATTEMPTS:
                                solo.append(i)
                            else:
                                failed[i] = CellFailure(
                                    labels[i], classify_exception(exc),
                                    charged[i], f"{type(exc).__name__}: {exc}")
                            if not isinstance(exc, _POOL_LOST):
                                continue
                        # The pool is broken or wedged: kill it, and run
                        # every uncollected cell again, uncharged.
                        batch = rest
                        if pool is not None:
                            self._shutdown_pool(pool, force=True)
                            pool = None
                        break
                    stats.record_cell(elapsed, value)
                    out[i] = value
                    on_ok(i, value)
        finally:
            if pool is not None:
                self._shutdown_pool(pool)
        stats.retries = sum(charged) - len(failed)
        if failed:
            raise HarnessError.from_failures(failed[i] for i in sorted(failed))
        return out

    def _submit(self, pool, fn: Callable[[Any], Any],
                item: Any) -> Callable[[], Tuple[float, Any]]:
        """Start one run; return the call that collects its ``(elapsed,
        value)``. In-process (``pool`` None) that call is the run itself.
        A submission the broken pool refuses fails like its future would."""
        if pool is None:
            return functools.partial(_timed_call, fn, item)
        try:
            fut = pool.submit(_timed_call, fn, item)
        except BrokenExecutor as exc:
            fut = Future()
            fut.set_exception(exc)
        return functools.partial(fut.result, timeout=self.timeout)

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
        """Shut the pool down; with ``force`` (a cell timed out or broke
        the pool, so a worker may be wedged or busy with a run nobody will
        collect) terminate workers first, since a plain shutdown would
        block on a hung cell forever.

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
