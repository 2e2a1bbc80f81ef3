"""Cycle-accurate discrete-event simulation engine (bucketed fast path).

The engine's contract is unchanged from the original single-heap version:
events fire in ``(cycle, seq)`` order, where ``seq`` is the global
scheduling order, so events scheduled for the same cycle fire in
scheduling order and every simulation is fully deterministic — two runs
with the same configuration and workload produce bit-identical statistics.
``tests/test_engine_differential.py`` checks this equivalence against the
original engine, which it keeps as its oracle.

What changed is the data structure behind that contract. Profiles of the
Fig. 9 sweep showed most events land within a few hundred cycles of ``now``
(core ticks at ``now+1``, L1 hits at ``now+hit_latency``, NoC deliveries
tens of cycles out, DRAM returns ~460 cycles out), so a global binary heap
pays an O(log n) comparison cascade per event for keys that are almost
always near the minimum. Instead we keep a **two-level queue**:

* a rotating array of ``_RING`` (512, a power of two ≥ the DRAM minimum
  latency) near-future cycle buckets covering ``[now, horizon)``; an event
  at cycle ``c`` is appended to bucket ``c & (_RING - 1)`` — O(1), and
  because ``seq`` is monotonic each bucket list is seq-sorted by
  construction;
* a far-future heap for the rare events at or beyond the horizon (livelock
  watchdogs, timeseries samplers); when the queue advances, far events that
  fall inside the new window are migrated into their buckets **before** any
  callback at the new cycle runs, which keeps bucket order = seq order;
* a min-heap of *occupied bucket cycles* (pushed only on a bucket's
  empty→nonempty transition, so ~1 push per simulated cycle rather than
  per event) that makes "what is the next nonempty cycle?" O(log #cycles)
  even when the ring is sparse.

Same-cycle events are drained as a batch: the run loop acquires a bucket
once and walks it by index, picking up events appended to the current cycle
mid-drain without touching any priority structure. Two further fast paths:

* :meth:`Engine.schedule_call` is a no-handle variant of ``schedule`` for
  the hot call sites (core ticks, NoC deliveries, DRAM completions, L1 hit
  callbacks, protocol retries) whose events are never cancelled. Inside
  the ring window it appends the **bare callback** to the bucket — no
  event object, no seq draw (bucket position already encodes scheduling
  order); beyond the window it wraps the callback in an ``Event`` recycled
  through a free list. Because no handle escapes, neither representation
  can be confused by a stale ``cancel()``.
* ``pending`` is an O(1) live-event counter (decremented on cancel and on
  fire) instead of an O(n) heap walk, so watchdog ``snapshot()`` calls are
  free.

Components never spin on cycles they have nothing to do in; each schedules
the next event it cares about. GPU cores register their per-cycle issue
stage in the engine's cycle bucket itself (see ``GPUCore._schedule_tick``),
which makes the bucket the shared per-cycle dispatch list for all cores
active in that cycle.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError

Callback = Callable[[], None]

#: Width of the near-future window, in cycles. Must be a power of two and
#: should exceed the largest common scheduling distance (DRAM min_latency,
#: 460 cycles in the paper config) so that steady-state traffic never
#: touches the far heap.
_RING = 512
_MASK = _RING - 1

#: Free-list bound; beyond this, retired pooled events are dropped for the
#: allocator to reclaim.
_POOL_MAX = 4096


class Event:
    """Handle for a scheduled event; lets the scheduler cancel it."""

    __slots__ = ("cycle", "seq", "callback", "cancelled", "_engine",
                 "_pooled")

    def __init__(self, cycle: int, seq: int, callback: Callback):
        self.cycle = cycle
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._engine = None
        self._pooled = False

    def cancel(self) -> None:
        """Prevent the event from firing (it stays queued, skipped)."""
        if not self.cancelled:
            self.cancelled = True
            eng = self._engine
            if eng is not None:
                eng._live -= 1

    def __lt__(self, other: "Event") -> bool:
        return (self.cycle, self.seq) < (other.cycle, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"<Event @{self.cycle} #{self.seq}{flag}>"


class Engine:
    """A deterministic discrete-event simulator clock.

    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(5, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [5]
    """

    __slots__ = ("now", "max_cycles", "_seq", "_events_fired", "_stopped",
                 "_live", "_ring", "_ring_cycles", "_far", "_horizon",
                 "_cur", "_cur_idx", "_cur_cycle", "_pool", "diagnostics")

    def __init__(self, max_cycles: int = 500_000_000):
        self.now: int = 0
        self.max_cycles = max_cycles
        self._seq = 0
        self._events_fired = 0
        self._stopped = False
        #: Live (scheduled, not yet fired, not cancelled) events — O(1)
        #: ``pending``.
        self._live = 0
        #: Near-future buckets; bucket ``c & _MASK`` holds cycle ``c`` while
        #: ``c`` is inside ``[now, _horizon)``.
        self._ring: List[List[Event]] = [[] for _ in range(_RING)]
        #: Min-heap of cycles whose bucket is occupied (one entry per
        #: occupied cycle; pushed on the empty→nonempty transition).
        self._ring_cycles: List[int] = []
        #: Events at ``cycle >= _horizon``.
        self._far: List[Event] = []
        #: Exclusive upper bound of the ring window. Invariant: every event
        #: in a bucket has ``cycle < _horizon`` and every far-heap event has
        #: ``cycle >= horizon-at-push`` (monotonic), so the earliest ring
        #: cycle is always below the earliest far cycle.
        self._horizon = _RING
        # Batch-drain cursor over the bucket of the cycle being fired.
        # Events appended to the current cycle mid-drain extend the list and
        # are picked up by index; the list is recycled when the cycle ends.
        self._cur: Optional[List[Event]] = None
        self._cur_idx = 0
        self._cur_cycle = -1
        #: Free list of recycled schedule_call events.
        self._pool: List[Event] = []
        #: Optional () -> str hook appended to DeadlockError messages
        #: (the sanitizer attaches its recent-event tail here).
        self.diagnostics: Optional[Callable[[], str]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, cycle: int, callback: Callback) -> Event:
        """Schedule ``callback`` to fire at absolute ``cycle``."""
        if cycle < self.now:
            raise SimulationError(
                f"cannot schedule event in the past (now={self.now}, at={cycle})"
            )
        self._seq += 1
        ev = Event(cycle, self._seq, callback)
        ev._engine = self
        self._live += 1
        if cycle < self._horizon:
            bucket = self._ring[cycle & _MASK]
            if not bucket:
                heapq.heappush(self._ring_cycles, cycle)
            bucket.append(ev)
        else:
            heapq.heappush(self._far, ev)
        return ev

    def schedule_in(self, delay: int, callback: Callback) -> Event:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule(self.now + delay, callback)

    def schedule_call(self, cycle: int, callback: Callback) -> None:
        """Fire-and-forget scheduling for hot paths; returns no handle.

        Events created here cannot be cancelled (nothing holds a reference
        to them), which permits a representation trick: inside the ring
        window the **bare callback** is appended to the bucket — no event
        object at all. A bucket list is position-ordered (= scheduling
        order = seq order; far-heap migration happens before any same-cycle
        append, see ``_acquire_next_cycle``), so within a bucket the seq
        counter is redundant and is not consumed. Ordering relative to
        ``schedule()`` events is still exact: handle events in the same
        bucket sit at their scheduling position, and cross-cycle order
        never consults seq. Only the far-heap path (beyond the window)
        needs an ordering key and wraps the callback in a pooled
        :class:`Event`.
        """
        if cycle < self._horizon:
            if cycle < self.now:
                raise SimulationError(
                    f"cannot schedule event in the past "
                    f"(now={self.now}, at={cycle})"
                )
            self._live += 1
            bucket = self._ring[cycle & _MASK]
            if not bucket:
                heapq.heappush(self._ring_cycles, cycle)
            bucket.append(callback)
            return
        self._seq += 1
        pool = self._pool
        if pool:
            ev = pool.pop()
            ev.cycle = cycle
            ev.seq = self._seq
            ev.callback = callback
        else:
            ev = Event(cycle, self._seq, callback)
            ev._pooled = True
        self._live += 1
        heapq.heappush(self._far, ev)

    # ------------------------------------------------------------------
    # Queue internals
    # ------------------------------------------------------------------
    def _retire_bucket(self) -> None:
        """Drop the drained cursor bucket (its cycle is now in the past)."""
        del self._cur[:]
        self._cur = None

    def _acquire_next_cycle(self) -> bool:
        """Point the cursor at the earliest nonempty cycle, migrating far
        events into the window first. False when nothing is queued."""
        rc = self._ring_cycles
        far = self._far
        if rc:
            nxt = heapq.heappop(rc)
        else:
            while far and far[0].cancelled:
                heapq.heappop(far)
            if not far:
                return False
            nxt = far[0].cycle
        # Slide the window so it starts at the cycle about to fire, and
        # migrate far events that now fall inside it. Migration happens
        # before any callback at ``nxt`` runs and pops the far heap in
        # (cycle, seq) order, so every bucket list stays seq-sorted. The
        # horizon never shrinks here — after run(until=...) parks, stale
        # cancelled-only cycles below ``now`` may still be acquired, and
        # shrinking would strand already-bucketed events outside the
        # window (``_park`` is the only place the window contracts).
        horizon = nxt + _RING
        if horizon < self._horizon:
            horizon = self._horizon
        if far and far[0].cycle < horizon:
            ring = self._ring
            while far and far[0].cycle < horizon:
                ev = heapq.heappop(far)
                if ev.cancelled:
                    continue
                bucket = ring[ev.cycle & _MASK]
                if not bucket and ev.cycle != nxt:
                    heapq.heappush(rc, ev.cycle)
                bucket.append(ev)
        self._horizon = horizon
        self._cur = self._ring[nxt & _MASK]
        self._cur_idx = 0
        self._cur_cycle = nxt
        return True

    def _park(self, cyc: int, until: int) -> None:
        """Suspend a run at ``until`` with the next event cycle ``cyc``
        still in the future.

        The un-drained cycle is released back to the queue — a later
        ``schedule()`` may target an earlier cycle, which must fire first
        when the run resumes. (Fired slots in the released bucket are
        None/cancelled, so re-draining it from index 0 is safe.)

        Acquiring ``cyc`` may have slid the window far past ``until``; the
        window must contract back to ``[until, until + _RING)`` so that the
        one-cycle-per-bucket invariant holds for events scheduled while
        parked. Ring events beyond the contracted horizon are evicted back
        to the far heap (which restores far-cycle >= horizon > ring-cycle,
        the invariant the next-cycle selection relies on).
        """
        lst = self._cur
        self._cur = None
        horizon = until + _RING
        if self._horizon > horizon:
            keep: List[int] = []
            for c in self._ring_cycles:
                if c < horizon:
                    keep.append(c)
                else:
                    self._evict_bucket(c, self._ring[c & _MASK])
            heapq.heapify(keep)
            self._ring_cycles = keep
            if cyc < horizon:
                heapq.heappush(self._ring_cycles, cyc)
            else:
                self._evict_bucket(cyc, lst)
            self._horizon = horizon
        else:
            heapq.heappush(self._ring_cycles, cyc)
        self.now = until

    def _evict_bucket(self, cycle: int, bucket: List) -> None:
        """Move a bucket's live entries to the far heap (window contraction).

        Bucket entries are position-ordered; bare ``schedule_call``
        callbacks carry no ordering key, so every evicted entry is
        (re)stamped with a fresh ascending seq. That preserves the
        bucket's internal order, and cross-event order is safe because
        (a) a cycle never has entries in both the ring and the far heap,
        and (b) any event scheduled for this cycle *after* the eviction
        draws a still-higher seq.
        """
        far = self._far
        seq = self._seq
        for ev in bucket:
            if ev is None:
                continue
            if ev.__class__ is Event:
                if ev.cancelled:
                    continue
                seq += 1
                ev.seq = seq
            else:
                seq += 1
                wrapped = Event(cycle, seq, ev)
                wrapped._pooled = True
                ev = wrapped
            heapq.heappush(far, ev)
        self._seq = seq
        del bucket[:]

    def _raise_horizon(self) -> None:
        detail = (f"event horizon exceeded max_cycles="
                  f"{self.max_cycles}; likely livelock or runaway "
                  "simulation")
        if self.diagnostics is not None:
            detail += "\n" + self.diagnostics()
        raise DeadlockError(self.now, detail)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._stopped = True

    def step(self) -> bool:
        """Fire the next pending event. Returns False when none remain."""
        max_cycles = self.max_cycles
        while True:
            lst = self._cur
            if lst is None or self._cur_idx >= len(lst):
                if lst is not None:
                    self._retire_bucket()
                if not self._acquire_next_cycle():
                    return False
                lst = self._cur
            cyc = self._cur_cycle
            idx = self._cur_idx
            while idx < len(lst):
                ev = lst[idx]
                idx += 1
                if ev is None:
                    continue
                if ev.__class__ is Event:
                    if ev.cancelled:
                        continue
                    cb = ev.callback
                    if ev._pooled:
                        ev.callback = None
                        if len(self._pool) < _POOL_MAX:
                            self._pool.append(ev)
                    else:
                        # Flag fired events so a stale handle's cancel()
                        # cannot corrupt the live counter.
                        ev.cancelled = True
                else:
                    cb = ev  # bare schedule_call callback
                if cyc > max_cycles:
                    self._cur_idx = idx
                    self._raise_horizon()
                self._cur_idx = idx
                # Null the fired slot: a released-and-reacquired bucket
                # re-drains from index 0, and a live reference here could
                # by then be a reused event (or would re-fire a bare
                # callback).
                lst[idx - 1] = None
                self.now = cyc
                self._live -= 1
                self._events_fired += 1
                cb()
                return True
            self._cur_idx = idx

    def run(self, until: Optional[int] = None) -> None:
        """Run until the event queue drains, ``stop()``, or cycle ``until``."""
        self._stopped = False
        max_cycles = self.max_cycles
        pool = self._pool
        while not self._stopped:
            if self._live == 0:
                return
            lst = self._cur
            if lst is None or self._cur_idx >= len(lst):
                if lst is not None:
                    self._retire_bucket()
                if not self._acquire_next_cycle():
                    return
                lst = self._cur
            cyc = self._cur_cycle
            if until is not None and cyc > until:
                self._park(cyc, until)
                return
            over = cyc > max_cycles
            # ``now`` is a per-cycle fact, not a per-event one: set it once
            # per batch (every callback in it fires at this cycle).
            self.now = cyc
            # Batch-drain every event of this cycle, including events the
            # callbacks append to it; ``len(lst)`` is re-read on purpose.
            # The live/fired counters are reconciled once per batch (no
            # callback observes them mid-cycle; ``snapshot()`` is only
            # read between runs) and ``finally`` keeps them — and the
            # resume cursor — consistent on stop(), park, and errors.
            idx = self._cur_idx
            fired = 0
            try:
                if over:
                    # Past the horizon: the first live event raises. Skips
                    # (and event-pool handling) mirror the drain loop below
                    # so the cursor state on raise matches the historical
                    # per-event check exactly.
                    while idx < len(lst):
                        ev = lst[idx]
                        idx += 1
                        if ev is None:
                            continue
                        if ev.__class__ is Event:
                            if ev.cancelled:
                                continue
                            cb = ev.callback
                            if ev._pooled:
                                ev.callback = None
                                if len(pool) < _POOL_MAX:
                                    pool.append(ev)
                            else:
                                ev.cancelled = True
                        self._raise_horizon()
                else:
                    while idx < len(lst):
                        ev = lst[idx]
                        idx += 1
                        if ev is None:
                            continue
                        if ev.__class__ is Event:
                            if ev.cancelled:
                                continue
                            cb = ev.callback
                            if ev._pooled:
                                ev.callback = None
                                if len(pool) < _POOL_MAX:
                                    pool.append(ev)
                            else:
                                ev.cancelled = True
                        else:
                            cb = ev  # bare schedule_call callback
                        lst[idx - 1] = None
                        fired += 1
                        cb()
                        if self._stopped:
                            return
            finally:
                self._cur_idx = idx
                self._live -= fired
                self._events_fired += fired

    def peek(self) -> Optional[int]:
        """Cycle of the next live event, or None if the queue is empty."""
        if self._live == 0:
            return None
        lst = self._cur
        if lst is not None:
            for i in range(self._cur_idx, len(lst)):
                ev = lst[i]
                if ev is not None and (ev.__class__ is not Event
                                       or not ev.cancelled):
                    return self._cur_cycle
        for cycle in sorted(self._ring_cycles):
            for ev in self._ring[cycle & _MASK]:
                if ev is not None and (ev.__class__ is not Event
                                       or not ev.cancelled):
                    return cycle
        far = self._far
        while far and far[0].cancelled:
            heapq.heappop(far)
        return far[0].cycle if far else None

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued. O(1)."""
        return self._live

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def snapshot(self) -> Tuple[int, int, int]:
        """(now, events_fired, pending) — used by progress watchdogs."""
        return (self.now, self._events_fired, self.pending)
