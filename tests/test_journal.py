"""Journaled campaigns: identity, encoding, resume, and divergence.

The contract under test: an interrupted campaign resumes from its
journal with completed cells replayed byte-identically and zero
re-computation; a journal/cache digest disagreement is *surfaced* as a
``cache-corrupt`` failure, never silently resolved; and a journal that
cannot be written degrades the campaign instead of killing it.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config import GPUConfig
from repro.errors import HarnessError, JournalError
from repro.exec import (
    CampaignJournal, ResultCache, SimCell, SweepExecutor, campaign_id,
    cell_key, decode_value, encode_value, payload_digest,
)
from repro.exec.journal import _load_journal
from tests.conftest import env_settings

CELLS = [
    SimCell(cfg=GPUConfig.small(), protocol=proto, workload="bfs",
            intensity=0.05, seed=11)
    for proto in ("RCC", "MESI")
]


def _touched(path):
    return json.load(open(path)) if os.path.exists(path) else None


class TestCampaignIdentity:
    def test_stable_for_same_plan(self):
        a = campaign_id(["k1", "k2"], {"seed": 7})
        assert a == campaign_id(["k1", "k2"], {"seed": 7})

    def test_sensitive_to_cells_meta_and_order(self):
        base = campaign_id(["k1", "k2"], {"seed": 7})
        assert campaign_id(["k1", "k2", "k3"], {"seed": 7}) != base
        assert campaign_id(["k2", "k1"], {"seed": 7}) != base
        assert campaign_id(["k1", "k2"], {"seed": 8}) != base

    def test_meta_with_non_json_values_still_hashes(self):
        # default=str covers sets, objects, etc. in caller metadata.
        assert campaign_id(["k"], {"knobs": {1, 2}})


class TestPayloadEncoding:
    def test_json_round_trip(self):
        doc = {"cycles": 123, "nested": {"a": [1, 2.5, None]}}
        enc = encode_value(doc)
        assert enc["enc"] == "json"
        assert decode_value(enc) == doc

    def test_pickle_fallback_round_trip(self):
        value = {"tuple": (1, 2), "set": {3, 4}}  # not JSON-able
        enc = encode_value(value)
        assert enc["enc"] == "pickle"
        assert decode_value(enc) == value

    def test_tampered_json_payload_raises(self):
        enc = encode_value({"cycles": 123})
        enc["data"]["cycles"] = 124
        with pytest.raises(JournalError):
            decode_value(enc)

    def test_tampered_pickle_payload_raises(self):
        enc = encode_value({"set": {1, 2}})
        assert enc["enc"] == "pickle"
        enc["data"] = enc["data"][:-8] + "AAAAAAA="
        with pytest.raises(JournalError):
            decode_value(enc)

    def test_unknown_encoding_raises(self):
        with pytest.raises(JournalError):
            decode_value({"enc": "msgpack", "data": "x"})
        with pytest.raises(JournalError):
            decode_value("not a dict")

    def test_payload_digest_invariant_under_round_trip(self):
        payload = {"final_memory": {7: ["v", 1]}, "cycles": 9}
        assert payload_digest(payload) == payload_digest(
            json.loads(json.dumps(payload, default=str)))


class TestJournalFile:
    def _open(self, tmp_path, cid="c" * 64, n=3, **kw):
        return CampaignJournal.open(str(tmp_path / "j.jsonl"), cid, n, **kw)

    def test_record_then_reopen_resumes(self, tmp_path):
        j = self._open(tmp_path)
        j.record_ok(0, "key0", "cell0", "d" * 64, 0.5, 1)
        j.record_failure(1, "key1", "cell1", "timeout", "wedged", 3)
        j.close()
        again = self._open(tmp_path)
        assert set(again.completed()) == {0}
        assert again.completed()[0]["key"] == "key0"
        assert set(again.failed()) == {1}
        assert again.failed()[1]["error"]["kind"] == "timeout"

    def test_latest_record_per_seq_wins(self, tmp_path):
        j = self._open(tmp_path)
        j.record_failure(0, "key0", "cell0", "crash", "died", 3)
        j.record_ok(0, "key0", "cell0", "d" * 64, 0.1, 4)
        j.close()
        again = self._open(tmp_path)
        assert set(again.completed()) == {0}
        assert not again.failed()

    def test_torn_trailing_line_tolerated(self, tmp_path):
        j = self._open(tmp_path)
        j.record_ok(0, "key0", "cell0", "d" * 64, 0.5, 1)
        j.record_ok(1, "key1", "cell1", "e" * 64, 0.5, 1)
        j.close()
        path = str(tmp_path / "j.jsonl")
        blob = open(path).read()
        with open(path, "w") as fh:           # SIGKILL mid-append
            fh.write(blob[:-17])
        again = self._open(tmp_path)
        assert set(again.completed()) == {0}, "torn record not dropped"

    def test_out_of_range_seq_ignored(self, tmp_path):
        j = self._open(tmp_path, n=2)
        j.record_ok(0, "k", "c", "d" * 64, 0.1, 1)
        j.close()
        shrunk = CampaignJournal.open(str(tmp_path / "j.jsonl"), "c" * 64, 2)
        path = str(tmp_path / "j.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps({"kind": "cell", "seq": 9,
                                 "status": "ok"}) + "\n")
        shrunk = CampaignJournal.open(path, "c" * 64, 2)
        assert set(shrunk.completed()) == {0}

    def test_mismatched_journal_rotated_not_overwritten(self, tmp_path):
        warnings = []
        j = self._open(tmp_path, cid="a" * 64)
        j.record_ok(0, "k", "c", "d" * 64, 0.1, 1)
        j.close()
        j2 = self._open(tmp_path, cid="b" * 64,
                        on_warning=warnings.append)
        assert not j2.completed()
        rotated = str(tmp_path / "j.jsonl.1")
        assert os.path.exists(rotated), "old journal lost, not rotated"
        header, records = _load_journal(rotated)
        assert header["campaign"] == "a" * 64
        assert len(records) == 1
        assert any("rotated" in w for w in warnings)

    def test_explicit_resume_mismatch_raises(self, tmp_path):
        j = self._open(tmp_path, cid="a" * 64)
        j.record_ok(0, "k", "c", "d" * 64, 0.1, 1)
        j.close()
        with pytest.raises(JournalError, match="different campaign"):
            CampaignJournal.open(str(tmp_path / "j.jsonl"), "b" * 64, 3,
                                 explicit=True)

    def test_write_failure_degrades_with_warning(self, tmp_path):
        blocker = tmp_path / "dir-in-the-way"
        blocker.write_text("file, not a directory")
        warnings = []
        j = CampaignJournal.open(str(blocker / "j.jsonl"), "c" * 64, 2,
                                 on_warning=warnings.append)
        j.record_ok(0, "k", "c", "d" * 64, 0.1, 1)   # must not raise
        j.record_ok(1, "k", "c", "e" * 64, 0.1, 1)
        assert j.broken
        assert j.write_errors == 1, "further writes not short-circuited"
        assert any("journal write failed" in w for w in warnings)


class TestExecutorResume:
    def _run(self, tmp_path, **kw):
        ex = SweepExecutor(env_settings(jobs=1), on_summary=lambda s: None, **kw)
        return ex, ex.run_cells(CELLS, meta={"suite": "test"})

    def test_second_run_replays_everything(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        jdir = str(tmp_path / "journals")
        ex1, first = self._run(tmp_path, cache=cache, journal_dir=jdir)
        assert ex1.last_stats.n_computed == len(CELLS)
        assert os.path.exists(ex1.last_journal_path)

        ex2, second = self._run(
            tmp_path, cache=ResultCache(str(tmp_path / "cache")),
            journal_dir=jdir)
        assert ex2.last_stats.n_replayed == len(CELLS)
        assert ex2.last_stats.n_computed == 0
        assert ([r.to_payload() for r in second]
                == [r.to_payload() for r in first])

    def test_cacheless_map_campaign_replays_from_embedded(self, tmp_path):
        jdir = str(tmp_path / "journals")
        calls = tmp_path / "calls"
        ex1 = SweepExecutor(env_settings(jobs=1), journal_dir=jdir,
                            on_summary=lambda s: None)
        first = ex1.map(_count_and_square, [(str(calls), x)
                                            for x in (2, 3)],
                        labels=["a", "b"], meta={"m": 1})
        assert first == [4, 9]
        assert len(calls.read_text()) == 2

        ex2 = SweepExecutor(env_settings(jobs=1), journal_dir=jdir,
                            on_summary=lambda s: None)
        second = ex2.map(_count_and_square, [(str(calls), x)
                                             for x in (2, 3)],
                         labels=["a", "b"], meta={"m": 1})
        assert second == first
        assert ex2.last_stats.n_replayed == 2
        assert len(calls.read_text()) == 2, "resume re-ran completed cells"

    def test_cache_evicted_cell_recomputed_pinned_to_digest(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        jdir = str(tmp_path / "journals")
        ex1, first = self._run(tmp_path, cache=cache, journal_dir=jdir)
        # Evict one entry: resume must recompute it and converge on the
        # journaled digest (the simulator is deterministic).
        os.unlink(cache.path_for(cell_key(CELLS[0])))
        ex2, second = self._run(
            tmp_path, cache=ResultCache(str(tmp_path / "cache")),
            journal_dir=jdir)
        assert ex2.last_stats.n_computed == 1
        assert ex2.last_stats.n_replayed == len(CELLS) - 1
        assert ([r.to_payload() for r in second]
                == [r.to_payload() for r in first])

    def test_journal_cache_divergence_surfaces_cache_corrupt(self,
                                                             tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        jdir = str(tmp_path / "journals")
        self._run(tmp_path, cache=cache, journal_dir=jdir)
        # Forge the cache entry: altered payload, *re-signed* with a
        # valid digest — the cache's own check passes, only the journal
        # cross-check can catch it.
        path = cache.path_for(cell_key(CELLS[0]))
        blob = json.load(open(path))
        blob["result"]["cycles"] += 1
        blob["digest"] = payload_digest(blob["result"])
        json.dump(blob, open(path, "w"))

        ex = SweepExecutor(env_settings(jobs=1),
                           cache=ResultCache(str(tmp_path / "cache")),
                           journal_dir=jdir, on_summary=lambda s: None)
        with pytest.raises(HarnessError) as err:
            ex.run_cells(CELLS, meta={"suite": "test"})
        (failure,) = err.value.failures
        assert failure.kind == "cache-corrupt"
        assert "refusing to pick a side" in failure.message
        # Neither store was silently "fixed".
        assert json.load(open(path))["result"]["cycles"] \
            == blob["result"]["cycles"]

    def test_resume_flag_accepts_journal_file(self, tmp_path):
        jdir = str(tmp_path / "journals")
        ex1, first = self._run(tmp_path, journal_dir=jdir)
        path = ex1.last_journal_path
        ex2, second = self._run(tmp_path, resume=path)
        assert ex2.last_stats.n_replayed == len(CELLS)
        assert ([r.to_payload() for r in second]
                == [r.to_payload() for r in first])

    def test_resume_flag_rejects_foreign_journal(self, tmp_path):
        jdir = str(tmp_path / "journals")
        ex1, _ = self._run(tmp_path, journal_dir=jdir)
        path = ex1.last_journal_path
        other = [CELLS[0]]  # different plan -> different campaign id
        ex2 = SweepExecutor(env_settings(jobs=1),
                            resume=path, on_summary=lambda s: None)
        with pytest.raises(JournalError, match="different campaign"):
            ex2.run_cells(other, meta={"suite": "test"})

    def test_resume_directory_means_journal_dir(self, tmp_path):
        jdir = tmp_path / "journals"
        jdir.mkdir()
        ex = SweepExecutor(env_settings(jobs=1), resume=str(jdir),
                           on_summary=lambda s: None)
        assert ex.journal_dir == str(jdir)
        assert ex.resume is None
        assert ex.journaling


def _count_and_square(pair):
    path, x = pair
    with open(path, "a") as fh:
        fh.write("x")
    return x * x
