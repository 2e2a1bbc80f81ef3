"""On-disk result cache for sweep cells (``.rcc-cache/``).

One JSON file per cell, named by the cell's content hash
(:func:`repro.exec.cells.cell_key`). Because the key covers the whole
``(GPUConfig, workload+intensity, protocol, seed, library version)``
tuple, invalidation is automatic: change any input and the key changes,
so the old entry is simply never read again. Corrupted or truncated
files are detected on read, evicted, and recomputed — a damaged cache can
slow a sweep down but never change its results. An entry that cannot be
opened at all is a plain miss, and nothing is evicted for it.

Integrity: each entry embeds a sha256 digest over the canonical JSON
form of its result payload, verified on every read. This catches the
failure the envelope checks cannot: silent in-place corruption (a
flipped bit, a hostile edit) that leaves the file valid JSON with the
right key but a wrong result.

Crash-atomicity: writes go to a temp file in the cache directory and
are published with ``os.replace``, so a crashed or killed run leaves
either the complete new entry or the old state — never a torn file. A
*failed* write (disk full, permissions) is swallowed: ``put`` returns
False, counts it in ``write_errors``, and the computed result flows back
to the caller regardless — a sick cache never loses work. Stale ``.tmp``
files from crashed writers are swept opportunistically.

The cache is size-bounded: after each write the directory is trimmed to
at most ``max_entries`` files and ``max_bytes`` total payload,
oldest-mtime entries first (content-addressed entries have no better
recency signal than their write time, and a re-computed cell rewrites
its file, refreshing it). Bounds default to
:data:`DEFAULT_MAX_ENTRIES` / :data:`DEFAULT_MAX_BYTES` and can be set
per instance (``0`` disables a bound). Hit/miss/eviction/write-error
counters are surfaced in the sweep summary line
(:class:`repro.exec.engine.SweepStats`).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from typing import Any, Dict, Optional

from repro.sim.results import SimResult

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".rcc-cache"

#: Bumped if the cache *file* envelope (not the result payload) changes.
#: Format 2 added the per-entry result digest.
CACHE_FORMAT = 2

#: Default size bounds. A full ``rcc-repro all`` sweep is a few hundred
#: cells of a few tens of KiB each, so these allow many sweeps' worth of
#: distinct configurations before anything is dropped.
DEFAULT_MAX_ENTRIES = 4096
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Leftover ``.tmp`` files older than this are presumed to come from a
#: crashed writer and are swept; younger ones may belong to a concurrent
#: campaign mid-commit.
STALE_TMP_AGE_S = 3600.0


def payload_digest(payload: Any) -> str:
    """sha256 over the canonical JSON form of a (JSON-able) payload.

    Canonical = ``sort_keys`` with default separators, which is also
    invariant under a JSON round-trip (int keys stringify, tuples become
    lists *before* hashing), so the digest computed at write time matches
    one recomputed from the loaded entry.
    """
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed store of :class:`SimResult` payloads."""

    def __init__(self, root: Optional[str] = None,
                 max_entries: int = DEFAULT_MAX_ENTRIES,
                 max_bytes: int = DEFAULT_MAX_BYTES):
        self.root = root or DEFAULT_CACHE_DIR
        #: Maximum entry count / total bytes; ``<= 0`` disables the bound.
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Writes that failed (and were swallowed — see :meth:`put`).
        self.write_errors = 0
        self.sweep_stale_tmp()

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[SimResult]:
        """The cached result for ``key``, or None on miss.

        An entry that cannot be opened (absent, or a cache root that is
        not a readable directory) is a plain miss. An entry that opens
        but is unreadable — bad JSON, wrong envelope, mismatched key,
        failed result digest, payload that fails reconstruction — is
        deleted and treated as a miss so the cell is recomputed instead
        of crashing (or corrupting) the sweep.
        """
        path = self.path_for(key)
        try:
            f = open(path, "r", encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        try:
            with f:
                blob = json.load(f)
        except (OSError, ValueError, UnicodeDecodeError):
            self._evict(path)
            self.misses += 1
            return None
        try:
            if blob["format"] != CACHE_FORMAT or blob["key"] != key:
                raise ValueError("cache envelope mismatch")
            if payload_digest(blob["result"]) != blob["digest"]:
                raise ValueError("cache entry failed its digest")
            result = SimResult.from_payload(blob["result"])
        except (KeyError, TypeError, ValueError, AttributeError):
            self._evict(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimResult,
            cell: Optional[Dict[str, Any]] = None) -> bool:
        """Store ``result`` under ``key``; returns False when skipped or
        the write failed.

        Results carrying per-op logs (``record_ops`` runs) are not cached:
        the payload deliberately drops op logs, so replaying such an entry
        would silently return less than the original run produced.

        Write failures (``OSError``: disk full, read-only cache, ...) are
        counted and swallowed — the caller already holds the computed
        result, and a cache that cannot persist it must not lose it.
        """
        if result.op_logs:
            return False
        payload = result.to_payload()
        blob = {
            "format": CACHE_FORMAT,
            "key": key,
            "digest": payload_digest(payload),
            "cell": cell or {},
            "result": payload,
        }
        data = json.dumps(blob).encode("utf-8")
        tmp = None
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, self.path_for(key))
            tmp = None
        except OSError:
            self.write_errors += 1
            self._discard_tmp(tmp)
            return False
        except BaseException:
            self._discard_tmp(tmp)
            raise
        self._enforce_bound()
        return True

    def clear(self) -> None:
        """Delete the whole cache directory (``make clean-cache``)."""
        shutil.rmtree(self.root, ignore_errors=True)

    def sweep_stale_tmp(self, max_age_s: float = STALE_TMP_AGE_S) -> int:
        """Remove ``.tmp`` leftovers from crashed writers; returns the
        number removed. Only files older than ``max_age_s`` go (a young
        one may be a concurrent campaign's in-flight commit)."""
        removed = 0
        try:
            it = os.scandir(self.root)
        except OSError:
            return 0
        now = time.time()
        with it:
            for de in it:
                if not de.name.endswith(".tmp"):
                    continue
                try:
                    if now - de.stat().st_mtime < max_age_s:
                        continue
                    os.unlink(de.path)
                    removed += 1
                except OSError:
                    continue
        return removed

    # ------------------------------------------------------------------
    @staticmethod
    def _discard_tmp(tmp: Optional[str]) -> None:
        if tmp:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _enforce_bound(self) -> None:
        """Trim the cache directory back under its size bounds.

        Entries are dropped oldest mtime first (path as tiebreak, for
        deterministic behavior when a filesystem's timestamps are
        coarse). Runs after every write; the scan is O(entries), which
        is trivial next to the simulation a write represents.
        """
        max_entries = self.max_entries
        max_bytes = self.max_bytes
        if max_entries <= 0 and max_bytes <= 0:
            return
        entries = []  # (mtime_ns, path, size)
        total = 0
        try:
            it = os.scandir(self.root)
        except OSError:
            return
        with it:
            for de in it:
                if not de.name.endswith(".json"):
                    continue
                try:
                    st = de.stat()
                except OSError:
                    continue
                entries.append((st.st_mtime_ns, de.path, st.st_size))
                total += st.st_size
        count = len(entries)
        if not ((max_entries > 0 and count > max_entries)
                or (max_bytes > 0 and total > max_bytes)):
            return
        entries.sort()
        for _, path, size in entries:
            if ((max_entries <= 0 or count <= max_entries)
                    and (max_bytes <= 0 or total <= max_bytes)):
                break
            self._evict(path)
            count -= 1
            total -= size

    def _evict(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass
        self.evictions += 1

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<ResultCache {self.root!r} hits={self.hits} "
                f"misses={self.misses} evictions={self.evictions} "
                f"write_errors={self.write_errors}>")
