"""Cycle-accurate discrete-event simulation engine (bucketed fast path).

The engine's contract: events fire in ``(cycle, seq)`` order, where ``seq``
is the global scheduling order, so events scheduled for the same cycle fire
in scheduling order and every simulation is fully deterministic — two runs
with the same configuration and workload produce bit-identical statistics.
``tests/test_engine_differential.py`` checks this equivalence against the
original single-heap engine, which it keeps as its oracle.

Profiles of the Fig. 9 sweep showed most events land within a few hundred
cycles of ``now`` (core ticks at ``now+1``, L1 hits at ``now+hit_latency``,
NoC deliveries tens of cycles out, DRAM returns ~460 cycles out), so a
global binary heap pays an O(log n) comparison cascade per event for keys
that are almost always near the minimum. Instead we keep a **two-level
queue**:

* a rotating array of ``_RING`` (512, a power of two ≥ the DRAM minimum
  latency) near-future cycle buckets covering ``[now, horizon)``; an event
  at cycle ``c`` appends its bare callback to bucket ``c & (_RING - 1)`` —
  O(1), and because appends happen in scheduling order, bucket position
  *is* seq order;
* a far-future heap of ``(cycle, seq, callback)`` tuples for the rare
  events at or beyond the horizon (livelock ticks, TC stores and fences
  waiting out a physical lease, long compute ops, DRAM returns behind a
  long bank queue); when the queue advances, far events that fall inside
  the new window are migrated into their buckets **before** any callback
  at the new cycle runs, which keeps bucket order = seq order;
* a min-heap of *occupied bucket cycles* (pushed only on a bucket's
  empty→nonempty transition, so ~1 push per simulated cycle rather than
  per event) that makes "what is the next nonempty cycle?" O(log #cycles)
  even when the ring is sparse.

Same-cycle events are drained as a batch: the run loop takes a cycle's
bucket once and walks it by index, picking up events appended to the
current cycle mid-drain without touching any priority structure.

Components never spin on cycles they have nothing to do in; each schedules
the next event it cares about. GPU cores register their per-cycle issue
stage in the engine's cycle bucket itself (see ``GPUCore._schedule_tick``),
which makes the bucket the shared per-cycle dispatch list for all cores
active in that cycle.

The one exception is a request its L2 bank cannot take yet: the model
re-presents it every ``RETRY_DELAY`` cycles (:meth:`Engine.poll`), and
each re-presentation is one fired event. Consecutive polls at the tail of
one bucket share a single entry, a *train*, that fires its members in
the order the per-poll queue would have, counts each one as an event,
and re-checks a member only when the bank state its verdict rests on
(the bank's ``wait_key()``) has moved since its last check.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError

Callback = Callable[[], None]

#: Width of the near-future window, in cycles. Must be a power of two and
#: should exceed the largest common scheduling distance (DRAM min_latency,
#: 460 cycles in the paper config) so that steady-state traffic never
#: touches the far heap.
_RING = 512
_MASK = _RING - 1


#: A key no ``wait_key()`` equals: ``_Train.keys`` holds it for a bank whose
#: members were checked under different keys, so all of them get re-checked.
_MIXED = object()


class _Train:
    """Consecutive polls sharing one bucket entry (see :meth:`Engine.poll`).

    A member is ``(check, resume, bank, key)``: ``bank`` is the bank its
    last check returned, or None when that check did not return one
    (an *unkeyed* member), and ``key`` is the bank's ``wait_key()`` at that
    check. ``keys`` maps each bank to the key all its members were checked
    under (or ``_MIXED``), and ``unkeyed`` counts the unkeyed members.
    """

    __slots__ = ("engine", "delay", "members", "keys", "unkeyed")

    def __init__(self, engine: "Engine", delay: int):
        self.engine = engine
        self.delay = delay
        self.members: List[tuple] = []
        self.keys: Dict[Any, Any] = {}
        self.unkeyed = 0

    def add(self, member: tuple) -> None:
        self.members.append(member)
        bank = member[2]
        if bank is None:
            self.unkeyed += 1
        elif self.keys.setdefault(bank, member[3]) != member[3]:
            self.keys[bank] = _MIXED

    def merge(self, keys: Dict[Any, Any]) -> None:
        """Record that members just appended were checked under ``keys``."""
        mine = self.keys
        for bank, key in keys.items():
            if mine.setdefault(bank, key) != key:
                mine[bank] = _MIXED

    def __call__(self) -> None:
        current: Dict[Any, Any] = {}
        if not self.unkeyed:
            current = {bank: bank.wait_key() for bank in self.keys}
            if current == self.keys:
                # No verdict can have changed: every member is still
                # blocked, so the whole train moves on in one append.
                engine = self.engine
                engine.events_fired += len(self.members) - 1
                cycle = engine.now + self.delay
                bucket = engine._ring[cycle & _MASK]
                if not bucket:
                    heappush(engine._ring_cycles, cycle)
                bucket.append(self)
                return
        self._walk(current)

    def _walk(self, current: Dict[Any, Any]) -> None:
        """Fire the members in order: re-check the unkeyed ones and those
        of banks whose key moved, re-arm every blocked one behind the
        members ahead of it, and resume the rest. ``current`` holds banks'
        keys as they are now; the rest are read when first needed."""
        engine = self.engine
        cycle = engine.now + self.delay
        bucket = engine._ring[cycle & _MASK]
        members = self.members
        keys = self.keys
        #: bank -> whether its key moved (its members need a re-check).
        recheck: Dict[Any, bool] = {None: True}
        out: Optional[_Train] = None   # the train at the tail of ``bucket``
        fired = 0
        try:
            for fired, member in enumerate(members, 1):
                bank = member[2]
                moved = recheck.get(bank)
                if moved is None:
                    key = current.get(bank)
                    if key is None:
                        key = current[bank] = bank.wait_key()
                    moved = recheck[bank] = key != keys[bank]
                if not moved:
                    if out is None:
                        out = self._tail(bucket, cycle)
                        rearm = out.members.append
                    rearm(member)
                    continue
                check, resume = member[0], member[1]
                verdict = check()
                if not verdict:
                    # Everything ahead is already re-armed, so anything
                    # ``resume`` schedules lands behind it, as it would
                    # behind per-poll events.
                    if out is not None:
                        out.merge(current)
                        out = None
                    resume()
                    current = {}
                    recheck = {None: True}
                    continue
                if out is None:
                    out = self._tail(bucket, cycle)
                    rearm = out.members.append
                if verdict is True:
                    rearm((check, resume, None, None))
                    out.unkeyed += 1
                    continue
                key = current.get(verdict)
                if key is None:
                    key = current[verdict] = verdict.wait_key()
                rearm((check, resume, verdict, key))
            if out is not None:
                out.merge(current)
        except BaseException:
            if out is not None:
                out.merge(current)
            # As in a bucket, the unfired rest stays queued at this cycle,
            # right behind the spent train.
            if fired < len(members):
                rest = _Train(engine, self.delay)
                for member in members[fired:]:
                    rest.add(member)
                here = engine._ring[engine.now & _MASK]
                here.insert(here.index(self) + 1, rest)
            raise
        finally:
            engine.events_fired += fired - 1

    def _tail(self, bucket: List[Callback], cycle: int) -> "_Train":
        """The train re-armed members join: ``bucket``'s tail if that is a
        train of this delay, else a new one appended there."""
        if bucket:
            tail = bucket[-1]
            if tail.__class__ is _Train and tail.delay == self.delay:
                return tail
        else:
            heappush(self.engine._ring_cycles, cycle)
        train = _Train(self.engine, self.delay)
        bucket.append(train)
        return train


class Engine:
    """A deterministic discrete-event simulator clock.

    >>> eng = Engine()
    >>> fired = []
    >>> eng.schedule(5, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [5]

    A poll re-presents itself every ``delay`` cycles while ``check()``
    holds, and counts one event per re-presentation:

    >>> free = []
    >>> eng.schedule(20, lambda: free.append(True))
    >>> eng.poll(8, lambda: not free, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired, eng.events_fired
    ([5, 21], 4)
    """

    __slots__ = ("now", "max_cycles", "diagnostics", "events_fired",
                 "_seq", "_ring", "_ring_cycles", "_far", "_horizon")

    def __init__(self, max_cycles: int = 500_000_000):
        self.now: int = 0
        self.max_cycles = max_cycles
        #: Optional () -> str hook appended to DeadlockError messages
        #: (the sanitizer attaches its recent-event tail here).
        self.diagnostics: Optional[Callable[[], str]] = None
        #: Callbacks fired so far.
        self.events_fired = 0
        #: Far-heap tie-break: same-cycle far events pop in scheduling
        #: order. Ring events need none (bucket position is their order).
        self._seq = 0
        #: Near-future buckets; bucket ``c & _MASK`` holds cycle ``c`` while
        #: ``c`` is inside ``[now, _horizon)``.
        self._ring: List[List[Callback]] = [[] for _ in range(_RING)]
        #: Min-heap of cycles whose bucket is occupied (one entry per
        #: occupied cycle; pushed on the empty→nonempty transition).
        self._ring_cycles: List[int] = []
        #: ``(cycle, seq, callback)`` for events at ``cycle >= _horizon``.
        self._far: List[Tuple[int, int, Callback]] = []
        #: Exclusive upper bound of the ring window. It never shrinks, and
        #: every far event was at or beyond it when pushed, so the earliest
        #: ring cycle is always below the earliest far cycle.
        self._horizon = _RING

    def schedule(self, cycle: int, callback: Callback) -> None:
        """Schedule ``callback`` to fire at absolute ``cycle``.

        Raises :class:`SimulationError` for a cycle before ``now``.
        """
        if cycle < self._horizon:
            if cycle < self.now:
                raise SimulationError(
                    f"cannot schedule event in the past "
                    f"(now={self.now}, at={cycle})")
            bucket = self._ring[cycle & _MASK]
            if not bucket:
                heappush(self._ring_cycles, cycle)
            bucket.append(callback)
        else:
            self._seq += 1
            heappush(self._far, (cycle, self._seq, callback))

    def poll(self, delay: int, check: Callable[[], Any],
             resume: Callback) -> None:
        """Re-present a blocked request every ``delay`` cycles until
        ``check()`` lets it through, then call ``resume()``.

        Each re-presentation is one fired event, at the cycle and bucket
        position that ``schedule(now + delay, ...)``, made now and again
        by each blocked re-presentation, would give it. ``check`` must be
        a pure read; it is called now and at re-presentations. It returns
        something falsy when the request may proceed, ``True`` while it
        is blocked, or the bank that blocks it: then the request is not
        re-checked while ``bank.wait_key()`` stays what it was at that
        check. Raises :class:`SimulationError` unless ``0 < delay < 512``.
        """
        if not 0 < delay < _RING:
            raise SimulationError(
                f"poll delay must be in [1, {_RING}), got {delay}")
        verdict = check()
        if verdict and verdict is not True:
            member = (check, resume, verdict, verdict.wait_key())
        else:
            member = (check, resume, None, None)
        cycle = self.now + delay
        bucket = self._ring[cycle & _MASK]
        if bucket:
            tail = bucket[-1]
            if tail.__class__ is _Train and tail.delay == delay:
                tail.add(member)
                return
        else:
            heappush(self._ring_cycles, cycle)
        train = _Train(self, delay)
        train.add(member)
        bucket.append(train)

    def run(self) -> None:
        """Fire events in ``(cycle, seq)`` order until the queue drains.

        Raises :class:`DeadlockError` on reaching an event past
        ``max_cycles``; that event and the rest of its cycle stay queued.
        """
        ring = self._ring
        ring_cycles = self._ring_cycles
        far = self._far
        max_cycles = self.max_cycles
        while True:
            if ring_cycles:
                cycle = heappop(ring_cycles)
            elif far:
                cycle = far[0][0]
            else:
                return
            # Slide the window so it starts at the cycle about to fire, and
            # migrate far events that now fall inside it. Migration happens
            # before any callback at ``cycle`` runs and pops the far heap in
            # (cycle, seq) order, so every bucket stays in seq order.
            horizon = cycle + _RING
            while far and far[0][0] < horizon:
                c, _, callback = heappop(far)
                bucket = ring[c & _MASK]
                if not bucket and c != cycle:
                    heappush(ring_cycles, c)
                bucket.append(callback)
            self._horizon = horizon
            self.now = cycle
            if cycle > max_cycles:
                heappush(ring_cycles, cycle)
                detail = (f"event horizon exceeded max_cycles={max_cycles}; "
                          "likely livelock or runaway simulation")
                if self.diagnostics is not None:
                    detail += "\n" + self.diagnostics()
                raise DeadlockError(cycle, detail)
            # Batch-drain every event of this cycle, including events the
            # callbacks append to it; ``len(bucket)`` is re-read on purpose.
            bucket = ring[cycle & _MASK]
            fired = 0
            try:
                while fired < len(bucket):
                    callback = bucket[fired]
                    fired += 1
                    callback()
            finally:
                self.events_fired += fired
                del bucket[:fired]
                if bucket:
                    # A callback raised: the unfired rest stays queued.
                    heappush(ring_cycles, cycle)
