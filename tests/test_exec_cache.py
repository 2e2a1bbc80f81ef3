"""Correctness of the content-keyed on-disk result cache.

A cache hit must return the exact payload that was computed; any change
to any key component must miss; and a damaged cache may cost time but
never correctness (corrupt entries are evicted and recomputed). The
warm-run test is the acceptance criterion: replaying a full sweep from
cache completes in a small fraction of the cold wall-clock time. The
cache is also how a killed sweep resumes: every cell it finished is
replayed, and only the rest run again.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

import pytest

from repro.config import GPUConfig
from repro.exec import (
    ResultCache, SimCell, SweepExecutor, cell_key, payload_digest,
    sweep_cells,
)
from repro.gpu.trace import store_op
from repro.sim.gpusim import run_simulation
from tests.conftest import env_run_cell, env_settings, program_traces

BASE = SimCell(cfg=GPUConfig.small(), protocol="RCC", workload="dlb",
               intensity=0.1, seed=42)


@pytest.fixture(scope="module")
def base_result():
    return env_run_cell(BASE)


class TestRoundTrip:
    def test_hit_returns_exact_payload(self, tmp_path, base_result):
        cache = ResultCache(str(tmp_path))
        key = cell_key(BASE)
        assert cache.put(key, base_result)
        got = cache.get(key)
        assert got is not None
        assert got.to_payload() == base_result.to_payload()
        # The figures' vocabulary survives: scalars, derived metrics,
        # histograms, energy, and tuple-valued data tokens.
        assert got.as_dict() == base_result.as_dict()
        assert got.final_memory == base_result.final_memory
        assert any(isinstance(v, tuple)
                   for v in got.final_memory.values())
        for kind in base_result.latency_hist:
            assert (got.latency_hist[kind].summary()
                    == base_result.latency_hist[kind].summary())
        assert got.energy.as_dict() == base_result.energy.as_dict()
        assert cache.hits == 1 and cache.misses == 0

    def test_get_without_put_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get(cell_key(BASE)) is None
        assert cache.misses == 1

    def test_record_ops_results_never_cached(self, tmp_path):
        cfg = GPUConfig.small().replace(n_cores=2, warps_per_core=1)
        res = run_simulation(cfg, "RCC",
                             program_traces(cfg, {(0, 0): [store_op(0)]}),
                             record_ops=True)
        assert res.op_logs
        cache = ResultCache(str(tmp_path))
        assert not cache.put("somekey", res)
        assert cache.get("somekey") is None


class TestKeying:
    def test_every_component_changes_the_key(self):
        base = cell_key(BASE)
        variants = [
            dataclasses.replace(BASE, protocol="TCW"),
            dataclasses.replace(BASE, workload="bfs"),
            dataclasses.replace(BASE, intensity=0.2),
            dataclasses.replace(BASE, seed=43),
            dataclasses.replace(
                BASE, ts_overrides=(("renew_enabled", False),)),
            dataclasses.replace(BASE, cfg=GPUConfig.bench()),
        ]
        keys = {base} | {cell_key(v) for v in variants}
        assert len(keys) == len(variants) + 1

    def test_library_version_changes_the_key(self):
        assert (cell_key(BASE, version="1.0.0")
                != cell_key(BASE, version="1.0.1"))

    def test_key_is_stable(self):
        assert cell_key(BASE) == cell_key(BASE)


class TestCorruption:
    def _cached(self, tmp_path, base_result):
        cache = ResultCache(str(tmp_path))
        key = cell_key(BASE)
        cache.put(key, base_result)
        return cache, key, cache.path_for(key)

    def test_truncated_entry_evicted_not_crashing(self, tmp_path,
                                                  base_result):
        cache, key, path = self._cached(tmp_path, base_result)
        blob = open(path).read()
        with open(path, "w") as f:
            f.write(blob[:len(blob) // 2])
        assert cache.get(key) is None
        assert cache.evictions == 1
        assert not os.path.exists(path)

    def test_garbage_entry_evicted(self, tmp_path, base_result):
        cache, key, path = self._cached(tmp_path, base_result)
        with open(path, "w") as f:
            f.write("not json at all {{{")
        assert cache.get(key) is None
        assert cache.evictions == 1

    def test_key_mismatch_evicted(self, tmp_path, base_result):
        cache, key, path = self._cached(tmp_path, base_result)
        blob = json.load(open(path))
        blob["key"] = "0" * 64
        json.dump(blob, open(path, "w"))
        assert cache.get(key) is None
        assert cache.evictions == 1

    def test_bad_payload_evicted(self, tmp_path, base_result):
        cache, key, path = self._cached(tmp_path, base_result)
        blob = json.load(open(path))
        del blob["result"]["cycles"]
        json.dump(blob, open(path, "w"))
        assert cache.get(key) is None
        assert cache.evictions == 1

    def test_bit_flip_inside_valid_json_caught_by_digest(self, tmp_path,
                                                         base_result):
        # The failure mode the format-1 envelope checks could not see:
        # the file is valid JSON, format and key match, but one value in
        # the result was silently altered. Only the digest catches it.
        cache, key, path = self._cached(tmp_path, base_result)
        blob = json.load(open(path))
        blob["result"]["cycles"] = blob["result"]["cycles"] + 1
        json.dump(blob, open(path, "w"))  # digest left as written
        assert cache.get(key) is None
        assert cache.evictions == 1
        assert not os.path.exists(path)

    def test_digest_invariant_under_json_round_trip(self, base_result):
        payload = base_result.to_payload()
        reloaded = json.loads(json.dumps(payload))
        assert payload_digest(payload) == payload_digest(reloaded)

    def test_digest_invariant_under_int_key_round_trip(self):
        # JSON turns int keys into strings; the digest must not notice.
        payload = {"final_memory": {7: ["v", 1]}, "cycles": 9}
        assert payload_digest(payload) == payload_digest(
            json.loads(json.dumps(payload, default=str)))

    def test_corrupted_cell_recomputed_through_executor(self, tmp_path,
                                                        base_result):
        def truncate(blob):
            return "{\"truncated\": tru"

        def alter_a_value(blob):  # valid JSON; only the digest sees it
            doc = json.loads(blob)
            doc["result"]["cycles"] += 1
            return json.dumps(doc)

        cache = ResultCache(str(tmp_path))
        ex = SweepExecutor(env_settings(jobs=1), cache=cache)
        first = ex.run_cells([BASE])[0]
        path = cache.path_for(cell_key(BASE))
        for damage in (truncate, alter_a_value):
            with open(path) as f:
                blob = f.read()
            with open(path, "w") as f:
                f.write(damage(blob))
            again = SweepExecutor(env_settings(jobs=1),
                                  cache=ResultCache(str(tmp_path)))
            second = again.run_cells([BASE])[0]
            assert second.to_payload() == first.to_payload(), damage
            assert again.last_stats.n_computed == 1, damage
            # ... and the recomputed result was re-cached, valid this time.
            third = SweepExecutor(env_settings(jobs=1),
                                  cache=ResultCache(str(tmp_path)))
            assert (third.run_cells([BASE])[0].to_payload()
                    == first.to_payload()), damage
            assert third.last_stats.n_cached == 1, damage

    def test_clear_removes_everything(self, tmp_path, base_result):
        cache, key, path = self._cached(tmp_path, base_result)
        cache.clear()
        assert not os.path.exists(path)
        assert cache.get(key) is None


class TestCrashSafety:
    """``put`` is crash-atomic (publish via ``os.replace``) and failure-
    tolerant (a sick disk costs the cache, never the result)."""

    def test_put_oserror_swallowed_and_counted(self, tmp_path, base_result):
        # Point the cache root at a *file*: makedirs raises, and the
        # failed write must be swallowed, counted, and leave no debris.
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        cache = ResultCache(str(blocker))
        assert cache.put(cell_key(BASE), base_result) is False
        assert cache.write_errors == 1
        assert blocker.read_text() == "in the way"

    def test_unwritable_cache_returns_clean_payloads(self, tmp_path,
                                                     base_result):
        # Every write fails (the root is a file); the sweep still
        # returns exactly what a cache-less run computes.
        cells = [BASE, dataclasses.replace(BASE, protocol="MESI")]
        clean = SweepExecutor(env_settings(jobs=1)).run_cells(cells)
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        cache = ResultCache(str(blocker))
        got = SweepExecutor(env_settings(jobs=1), cache=cache).run_cells(cells)
        assert ([r.to_payload() for r in got]
                == [r.to_payload() for r in clean])
        assert cache.write_errors == len(cells)

    def test_no_tmp_debris_after_successful_put(self, tmp_path,
                                                base_result):
        cache = ResultCache(str(tmp_path))
        assert cache.put(cell_key(BASE), base_result)
        assert not [f for f in os.listdir(str(tmp_path))
                    if f.endswith(".tmp")]

    def test_stale_tmp_swept_young_tmp_kept(self, tmp_path, base_result):
        stale = tmp_path / "dead-writer.tmp"
        stale.write_text("half an entry")
        old = time.time() - 7200
        os.utime(str(stale), (old, old))
        young = tmp_path / "inflight.tmp"
        young.write_text("concurrent commit")

        cache = ResultCache(str(tmp_path))  # __init__ sweeps
        assert not stale.exists(), "stale tmp from a crashed writer kept"
        assert young.exists(), "a concurrent writer's tmp was destroyed"
        # The survivor is not treated as a cache entry.
        assert cache.get(cell_key(BASE)) is None


class _Killed(BaseException):
    """Stands in for SIGKILL: the executor catches only ``Exception``, so
    nothing but ``finally`` blocks runs after it."""


#: Four small-machine cells; the killing worker dies on the third.
KILL_CELLS = [SimCell(cfg=GPUConfig.small(), protocol=p, workload=w,
                      intensity=0.05)
              for w in ("bfs", "stn") for p in ("RCC", "MESI")]


def _dies_on_third(cell):
    if cell == KILL_CELLS[2]:
        raise _Killed(cell.label)
    return env_run_cell(cell)


class TestKilledSweep:
    """A sweep killed mid-run keeps every cell it had collected: each is
    written to the cache as it arrives, not after the batch returns, so
    the re-run computes only the cells the killed run never finished."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rerun_computes_only_unfinished_cells(self, tmp_path, jobs):
        clean = SweepExecutor(env_settings(jobs=1)).run_cells(KILL_CELLS)
        killed = SweepExecutor(env_settings(jobs=jobs),
                               cache=ResultCache(str(tmp_path)),
                               worker=_dies_on_third)
        with pytest.raises(_Killed):
            killed.run_cells(KILL_CELLS)

        rerun = SweepExecutor(env_settings(jobs=jobs),
                              cache=ResultCache(str(tmp_path)))
        got = rerun.run_cells(KILL_CELLS)
        assert rerun.last_stats.n_cached == 2
        assert rerun.last_stats.n_computed == 2
        assert ([r.to_payload() for r in got]
                == [r.to_payload() for r in clean])


class TestSizeBound:
    """The cache directory respects its entry/byte bounds, evicting
    oldest-mtime entries first, with evictions visible in the counters
    and the sweep summary line."""

    def _fill(self, cache, base_result, n):
        """Write ``n`` entries under distinct keys with strictly
        increasing mtimes (set explicitly — filesystem timestamp
        granularity is too coarse to rely on write order)."""
        keys = [f"{i:02d}" + "0" * 62 for i in range(n)]
        for i, key in enumerate(keys):
            assert cache.put(key, base_result)
            os.utime(cache.path_for(key), ns=(i * 10 ** 9, i * 10 ** 9))
        return keys

    def test_entry_bound_drops_oldest(self, tmp_path, base_result):
        cache = ResultCache(str(tmp_path), max_entries=3, max_bytes=0)
        keys = self._fill(cache, base_result, 3)
        assert cache.evictions == 0
        # A fourth entry pushes the oldest (keys[0]) out.
        assert cache.put("ff" + "0" * 62, base_result)
        assert cache.evictions == 1
        assert not os.path.exists(cache.path_for(keys[0]))
        for key in keys[1:]:
            assert os.path.exists(cache.path_for(key))
        assert os.path.exists(cache.path_for("ff" + "0" * 62))

    def test_byte_bound_drops_oldest(self, tmp_path, base_result):
        probe = ResultCache(str(tmp_path), max_entries=0, max_bytes=0)
        probe.put("0" * 64, base_result)
        entry_bytes = os.path.getsize(probe.path_for("0" * 64))
        probe.clear()

        # Room for two entries but not three.
        cache = ResultCache(str(tmp_path), max_entries=0,
                            max_bytes=2 * entry_bytes + entry_bytes // 2)
        keys = self._fill(cache, base_result, 2)
        assert cache.evictions == 0
        assert cache.put("ee" + "0" * 62, base_result)
        assert cache.evictions == 1
        assert not os.path.exists(cache.path_for(keys[0]))
        assert os.path.exists(cache.path_for(keys[1]))

    def test_zero_disables_bounds(self, tmp_path, base_result):
        cache = ResultCache(str(tmp_path), max_entries=0, max_bytes=0)
        self._fill(cache, base_result, 6)
        assert cache.evictions == 0
        assert len([f for f in os.listdir(str(tmp_path))
                    if f.endswith(".json")]) == 6

    def test_sweep_stats_carry_cache_counters(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cold = SweepExecutor(env_settings(jobs=1), cache=cache)
        cold.run_cells([BASE])
        assert cold.last_stats.cache_hits == 0
        assert cold.last_stats.cache_misses == 1
        assert cold.last_stats.cache_evictions == 0
        assert "cache 0 hit/1 miss" in cold.last_stats.render()

        warm = SweepExecutor(env_settings(jobs=1),
                             cache=ResultCache(str(tmp_path)))
        warm.run_cells([BASE])
        assert warm.last_stats.cache_hits == 1
        assert warm.last_stats.cache_misses == 0
        assert "cache 1 hit/0 miss" in warm.last_stats.render()

    def test_stats_without_cache_omit_counters(self):
        ex = SweepExecutor(env_settings(jobs=1), cache=None)
        ex.run_cells([BASE])
        assert ex.last_stats.cache_hits is None
        assert "cache" not in ex.last_stats.render()


class TestWarmSweep:
    def test_warm_rerun_under_quarter_of_cold(self, tmp_path):
        """Acceptance: a cache-warm full protocol sweep finishes in <25%
        of the cold wall-clock time, with zero cells recomputed."""
        cells = sweep_cells(
            GPUConfig.small(),
            ["MESI", "TCS", "TCW", "RCC", "RCC-WO", "SC-IDEAL"],
            ["bh", "bfs", "cl", "dlb", "stn", "vpr", "hsp", "kmn", "lps",
             "ndl", "sr", "lud"],
            intensity=0.3, seed=7)
        cold_ex = SweepExecutor(env_settings(jobs=1),
                                cache=ResultCache(str(tmp_path)))
        t0 = time.perf_counter()
        cold = cold_ex.run_cells(cells)
        cold_wall = time.perf_counter() - t0
        assert cold_ex.last_stats.n_computed == len(cells)
        assert cold_wall > 0.5, "sweep too small to time meaningfully"

        warm_ex = SweepExecutor(env_settings(jobs=1),
                                cache=ResultCache(str(tmp_path)))
        t0 = time.perf_counter()
        warm = warm_ex.run_cells(cells)
        warm_wall = time.perf_counter() - t0
        assert warm_ex.last_stats.n_computed == 0
        assert warm_ex.last_stats.n_cached == len(cells)
        assert ([r.to_payload() for r in warm]
                == [r.to_payload() for r in cold])
        assert warm_wall < 0.25 * cold_wall, (
            f"warm {warm_wall:.2f}s vs cold {cold_wall:.2f}s")
