"""Journaled campaigns: an append-only JSONL record of sweep progress.

A *campaign* is one batch of cells handed to the sweep executor — a
figure grid, a fuzz campaign's program list, an ablation matrix. Its
identity is content-derived: ``campaign_id`` hashes the planned cell
list (content keys for simulation cells, labels for generic work items)
together with the caller's metadata and the library version, so the same
command line names the same campaign and a changed plan names a new one.

The journal is one JSONL file per campaign. Line 1 is the header::

    {"kind": "campaign", "format": 1, "campaign": "<sha256>",
     "n_cells": N, "meta": {...}, "created": <epoch>}

followed by one record per *finished* cell, appended (and fsync'd) the
moment the cell completes::

    {"kind": "cell", "seq": i, "key": "...", "label": "...",
     "status": "ok", "attempts": 1, "wall_s": 0.42,
     "digest": "<sha256 of the canonical result payload>",
     "payload": {"enc": "json"|"pickle", "data": ...} | null}

    {"kind": "cell", "seq": i, ..., "status": "failed",
     "error": {"kind": "timeout", "message": "..."}}

``payload`` is embedded when no content-keyed cache holds the result
(generic ``map`` campaigns, cache-less sweeps); cached sweeps record the
digest only and replay from the cache, with any digest disagreement
**surfaced** as a ``cache-corrupt`` failure rather than silently
resolved in either direction.

Crash-safety properties:

* appends are flushed and fsync'd per record, so a SIGKILL loses at most
  the record being written;
* a torn trailing line (the crash arrived mid-write) is tolerated on
  load and simply dropped;
* re-running a campaign re-opens its journal and *resumes*: completed
  cells are replayed, failed and missing cells re-run, new records
  append after the old ones (the latest record per ``seq`` wins);
* a journal whose header does not match the campaign being run is
  rotated aside atomically (``<path>.1``, ``.2``, ...) — never
  overwritten — unless it was named explicitly via ``--resume``, in
  which case the mismatch is an error;
* journal *write* failures (disk full, permissions) degrade the
  campaign to non-journaled execution with a surfaced warning: results
  are never blocked on bookkeeping.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.chaos import FaultPlan
from repro.errors import JournalError

#: Bumped when the journal file layout changes incompatibly.
JOURNAL_FORMAT = 1


# ----------------------------------------------------------------------
# Canonical digests and payload encoding
# ----------------------------------------------------------------------

def payload_digest(payload: Any) -> str:
    """sha256 over the canonical JSON form of a (JSON-able) payload.

    Canonical = ``sort_keys`` with default separators, which is also
    invariant under a JSON round-trip (int keys stringify, tuples become
    lists *before* hashing), so the digest computed at write time matches
    one recomputed from the loaded record or cache entry.
    """
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def encode_value(value: Any) -> Dict[str, Any]:
    """Encode an arbitrary campaign result for journal embedding.

    JSON-able values are stored canonically as JSON (readable, greppable,
    diffable); anything else falls back to base64-pickle. Both carry a
    digest over the stored representation so bit rot is detected on
    replay.
    """
    try:
        blob = json.dumps(value, sort_keys=True)
    except (TypeError, ValueError):
        raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        data = base64.b64encode(raw).decode("ascii")
        return {"enc": "pickle", "data": data,
                "digest": hashlib.sha256(raw).hexdigest()}
    return {"enc": "json", "data": json.loads(blob),
            "digest": hashlib.sha256(blob.encode("utf-8")).hexdigest()}


def decode_value(embedded: Dict[str, Any]) -> Any:
    """Decode :func:`encode_value` output, verifying its digest.

    Raises :class:`JournalError` on any integrity or format problem —
    callers treat that cell as not-completed and recompute it.
    """
    try:
        enc = embedded["enc"]
        data = embedded["data"]
        want = embedded.get("digest")
    except (TypeError, KeyError) as exc:
        raise JournalError(f"malformed embedded payload: {exc}") from None
    if enc == "json":
        blob = json.dumps(data, sort_keys=True)
        got = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        if want and got != want:
            raise JournalError("embedded payload failed its digest")
        return data
    if enc == "pickle":
        try:
            raw = base64.b64decode(data)
        except (TypeError, ValueError) as exc:
            raise JournalError(f"undecodable pickle payload: {exc}") from None
        got = hashlib.sha256(raw).hexdigest()
        if want and got != want:
            raise JournalError("embedded payload failed its digest")
        try:
            return pickle.loads(raw)
        except Exception as exc:
            raise JournalError(f"unpicklable payload: {exc}") from None
    raise JournalError(f"unknown payload encoding {enc!r}")


def campaign_id(cell_tokens: Sequence[str],
                meta: Optional[Dict[str, Any]] = None) -> str:
    """Content hash naming one campaign: the planned cell list (content
    keys or labels, in order) + caller metadata + library version."""
    import repro
    blob = json.dumps(
        {
            "cells": list(cell_tokens),
            "meta": meta or {},
            "version": repro.__version__,
            "format": JOURNAL_FORMAT,
        },
        sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------

class CampaignJournal:
    """Append-only JSONL journal of one campaign's progress."""

    def __init__(self, path: str, campaign: str, n_cells: int,
                 meta: Optional[Dict[str, Any]] = None,
                 on_warning: Optional[Callable[[str], None]] = None,
                 plan: Optional[FaultPlan] = None):
        self.path = path
        self.campaign = campaign
        self.n_cells = n_cells
        self.meta = dict(meta or {})
        self.on_warning = on_warning
        #: The executor's fault plan: ``enospc`` fails appends and
        #: ``exit-after`` counts completions.
        self.plan = plan
        #: Latest record per seq, split by outcome (loaded on open).
        self._ok: Dict[int, Dict[str, Any]] = {}
        self._failed: Dict[int, Dict[str, Any]] = {}
        #: True once a write failed; further writes are skipped (the
        #: campaign continues un-journaled rather than dying on ENOSPC).
        self.broken = False
        self.write_errors = 0
        self._fh = None
        self._header_written = False

    # ------------------------------------------------------------------
    # Opening / resuming / rotating
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str, campaign: str, n_cells: int,
             meta: Optional[Dict[str, Any]] = None,
             explicit: bool = False,
             on_warning: Optional[Callable[[str], None]] = None,
             plan: Optional[FaultPlan] = None) -> "CampaignJournal":
        """Open (creating or resuming) the journal at ``path``.

        An existing file with a matching header is resumed; a mismatched
        one is rotated aside — or, when the user named the file
        explicitly (``--resume``, ``explicit=True``), the mismatch
        raises :class:`JournalError` instead of quietly starting over.
        """
        journal = cls(path, campaign, n_cells, meta=meta,
                      on_warning=on_warning, plan=plan)
        if os.path.exists(path):
            header, records = _load_journal(path)
            if (header is not None
                    and header.get("format") == JOURNAL_FORMAT
                    and header.get("campaign") == campaign
                    and header.get("n_cells") == n_cells):
                for rec in records:
                    journal._absorb(rec)
                journal._header_written = True
                return journal
            if explicit:
                raise JournalError(
                    f"journal {path} belongs to a different campaign "
                    f"(header {header.get('campaign', '?')[:12] if header else 'unreadable'}..., "
                    f"want {campaign[:12]}...); refusing to resume it")
            rotated = _rotate(path)
            journal._warn(f"journal {path} did not match this campaign; "
                          f"rotated old journal to {rotated}")
        return journal

    def _absorb(self, rec: Dict[str, Any]) -> None:
        if rec.get("kind") != "cell":
            return
        seq = rec.get("seq")
        if not isinstance(seq, int) or not 0 <= seq < self.n_cells:
            return
        if rec.get("status") == "ok":
            self._ok[seq] = rec
            self._failed.pop(seq, None)
        elif rec.get("status") == "failed":
            self._failed[seq] = rec
            self._ok.pop(seq, None)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def completed(self) -> Dict[int, Dict[str, Any]]:
        """seq -> latest ``ok`` record (resume replays these)."""
        return dict(self._ok)

    def failed(self) -> Dict[int, Dict[str, Any]]:
        """seq -> latest ``failed`` record (resume re-runs these)."""
        return dict(self._failed)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record_ok(self, seq: int, key: str, label: str, digest: str,
                  wall_s: float, attempts: int,
                  payload: Optional[Dict[str, Any]] = None) -> None:
        rec = {"kind": "cell", "seq": seq, "key": key, "label": label,
               "status": "ok", "attempts": attempts,
               "wall_s": round(wall_s, 6), "digest": digest,
               "payload": payload}
        self._append(rec)
        self._absorb(rec)
        if self.plan is not None:
            # The campaign-kill fault: die right after this journaled
            # completion, exactly where a CI SIGKILL would land.
            self.plan.count_completion()

    def record_failure(self, seq: int, key: str, label: str, kind: str,
                       message: str, attempts: int) -> None:
        rec = {"kind": "cell", "seq": seq, "key": key, "label": label,
               "status": "failed", "attempts": attempts,
               "error": {"kind": kind, "message": message}}
        self._append(rec)
        self._absorb(rec)

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover - close failure is final
                pass
            self._fh = None

    # ------------------------------------------------------------------
    def _append(self, rec: Dict[str, Any]) -> None:
        if self.broken:
            return
        try:
            if self.plan is not None:
                self.plan.check_write("journal",
                                      f"{self.campaign}:{rec.get('seq')}")
            if self._fh is None:
                parent = os.path.dirname(self.path)
                if parent:
                    os.makedirs(parent, exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
            if not self._header_written:
                header = {"kind": "campaign", "format": JOURNAL_FORMAT,
                          "campaign": self.campaign,
                          "n_cells": self.n_cells, "meta": self.meta,
                          "created": round(time.time(), 3)}
                self._fh.write(json.dumps(header, sort_keys=True) + "\n")
                self._header_written = True
            self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            self.broken = True
            self.write_errors += 1
            self.close()
            self._warn(f"journal write failed ({exc}); campaign continues "
                       f"un-journaled — resume will not cover cells from "
                       f"this point on")

    def _warn(self, message: str) -> None:
        if self.on_warning is not None:
            self.on_warning(f"[journal] {message}")
        else:  # pragma: no cover - default stderr path
            import sys
            print(f"[journal] {message}", file=sys.stderr)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<CampaignJournal {self.path!r} campaign="
                f"{self.campaign[:12]} ok={len(self._ok)} "
                f"failed={len(self._failed)}/{self.n_cells}>")


# ----------------------------------------------------------------------
# File helpers
# ----------------------------------------------------------------------

def _load_journal(path: str):
    """(header, records) from a journal file; torn trailing lines and
    unreadable files are tolerated (header None = unusable)."""
    header = None
    records: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except ValueError:
                    # A torn line can only be the last one written; stop.
                    break
                if header is None and doc.get("kind") == "campaign":
                    header = doc
                else:
                    records.append(doc)
    except OSError:
        return None, []
    return header, records


def _rotate(path: str) -> str:
    """Atomically move a stale journal aside to the first free
    ``<path>.N``; returns the new name."""
    n = 1
    while os.path.exists(f"{path}.{n}"):
        n += 1
    target = f"{path}.{n}"
    os.replace(path, target)
    return target
