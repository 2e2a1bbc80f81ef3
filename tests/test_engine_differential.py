"""Differential battery: fast bucketed engine vs the original heap engine.

Two layers of evidence that the two-level queue preserves the engine's
determinism contract (events fire in exact ``(cycle, seq)`` order):

* randomized schedule/schedule_call/cancel/run(until) scripts replayed
  against both engines must produce identical firing logs — with a
  greedy shrinker so a failure prints its minimal script;
* a seeded Fig. 9 sweep cell run end-to-end on each engine must produce
  bit-identical result payloads.

The oracle, :class:`LegacyEngine`, is the single-heap engine the
simulator shipped with before the bucketed one replaced it. Do not
optimize it; its value is being the unoptimized reference.
"""

import heapq
import json
import random
from typing import Callable, List, Optional, Tuple

import pytest

from repro.config import GPUConfig
from repro.errors import DeadlockError, SimulationError
from repro.exec import SimCell
from repro.sim import gpusim
from repro.timing.engine import Engine
from tests.conftest import env_run_cell

Callback = Callable[[], None]


# ----------------------------------------------------------------------
# The oracle: the original single-heap engine
# ----------------------------------------------------------------------
class LegacyEvent:
    """Handle for a scheduled event; lets the scheduler cancel it."""

    __slots__ = ("cycle", "seq", "callback", "cancelled")

    def __init__(self, cycle: int, seq: int, callback: Callback):
        self.cycle = cycle
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (it stays in the heap, skipped)."""
        self.cancelled = True

    def __lt__(self, other: "LegacyEvent") -> bool:
        return (self.cycle, self.seq) < (other.cycle, other.seq)


class LegacyEngine:
    """A deterministic discrete-event simulator clock (single global heap)."""

    def __init__(self, max_cycles: int = 500_000_000):
        self.now: int = 0
        self.max_cycles = max_cycles
        self._heap: List[LegacyEvent] = []
        self._seq = 0
        self._events_fired = 0
        self._stopped = False
        #: Optional () -> str hook appended to DeadlockError messages.
        self.diagnostics: Optional[Callable[[], str]] = None

    def schedule(self, cycle: int, callback: Callback) -> LegacyEvent:
        """Schedule ``callback`` to fire at absolute ``cycle``."""
        if cycle < self.now:
            raise SimulationError(
                f"cannot schedule event in the past (now={self.now}, at={cycle})"
            )
        self._seq += 1
        ev = LegacyEvent(cycle, self._seq, callback)
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_in(self, delay: int, callback: Callback) -> LegacyEvent:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule(self.now + delay, callback)

    def schedule_call(self, cycle: int, callback: Callback) -> None:
        """The fast engine's no-handle path: plain ``schedule`` with the
        handle dropped, so shared call sites behave identically."""
        self.schedule(cycle, callback)

    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._stopped = True

    def step(self) -> bool:
        """Fire the next pending event. Returns False when none remain."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            if ev.cycle > self.max_cycles:
                detail = (f"event horizon exceeded max_cycles="
                          f"{self.max_cycles}; likely livelock or runaway "
                          "simulation")
                if self.diagnostics is not None:
                    detail += "\n" + self.diagnostics()
                raise DeadlockError(self.now, detail)
            self.now = ev.cycle
            ev.callback()
            self._events_fired += 1
            return True
        return False

    def run(self, until: Optional[int] = None) -> None:
        """Run until the event queue drains, ``stop()``, or cycle ``until``."""
        self._stopped = False
        while not self._stopped:
            if until is not None and self.peek() is not None and self.peek() > until:
                self.now = until
                return
            if not self.step():
                return

    def peek(self) -> Optional[int]:
        """Cycle of the next live event, or None if the queue is empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].cycle if self._heap else None

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for ev in self._heap if not ev.cancelled)

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def snapshot(self) -> Tuple[int, int, int]:
        """(now, events_fired, pending) — used by progress watchdogs."""
        return (self.now, self._events_fired, self.pending)


# ----------------------------------------------------------------------
# Script interpreter
# ----------------------------------------------------------------------
# A script is a list of top-level ops:
#   ("sched", delay, tag, nested)  schedule() with a handle kept under tag
#   ("call",  delay, tag, nested)  schedule_call() (no handle)
#   ("cancel", tag)                cancel tag's handle if one exists
#   ("run_until", delta)           run(until=now + delta)
#   ("run",)                       drain everything queued so far
# ``nested`` is a list of (kind, delay, tag) scheduled from inside the
# callback when it fires — the mid-drain insertion case the bucket
# cursor must handle.


def exec_script(engine, script):
    log = []
    handles = {}

    def make_cb(tag, nested):
        def cb():
            log.append((engine.now, tag))
            for kind, delay, sub in nested:
                if kind == "call":
                    engine.schedule_call(engine.now + delay, make_cb(sub, ()))
                else:
                    handles[sub] = engine.schedule(engine.now + delay,
                                                   make_cb(sub, ()))
        return cb

    for op in script:
        kind = op[0]
        if kind == "sched":
            _, delay, tag, nested = op
            handles[tag] = engine.schedule(engine.now + delay,
                                           make_cb(tag, nested))
        elif kind == "call":
            _, delay, tag, nested = op
            engine.schedule_call(engine.now + delay, make_cb(tag, nested))
        elif kind == "cancel":
            handle = handles.get(op[1])
            if handle is not None:
                handle.cancel()
        elif kind == "run_until":
            engine.run(until=engine.now + op[1])
        elif kind == "run":
            engine.run()
    engine.run()
    return log, engine.now, engine.events_fired, engine.pending


def observe(script):
    fast = exec_script(Engine(), script)
    slow = exec_script(LegacyEngine(), script)
    return fast, slow


def shrink(script):
    """Greedily drop ops while the fast/legacy mismatch persists."""
    current = list(script)
    changed = True
    while changed:
        changed = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1:]
            fast, slow = observe(candidate)
            if fast != slow:
                current = candidate
                changed = True
                break
    return current


def random_script(rng):
    #: Delays straddle the 512-cycle ring window so far-heap migration,
    #: horizon slides, and run(until) parking all get exercised.
    delays = [0, 0, 1, 2, 3, 7, 8, 50, 200, 511, 512, 513, 900, 5000]
    script = []
    tag = 0
    for _ in range(rng.randrange(4, 40)):
        roll = rng.random()
        if roll < 0.35:
            nested = [("call" if rng.random() < 0.5 else "sched",
                       rng.choice(delays), f"n{tag}-{j}")
                      for j in range(rng.randrange(0, 3))]
            script.append(("sched", rng.choice(delays), f"t{tag}", nested))
            tag += 1
        elif roll < 0.65:
            nested = [("call", rng.choice(delays), f"n{tag}-{j}")
                      for j in range(rng.randrange(0, 3))]
            script.append(("call", rng.choice(delays), f"t{tag}", nested))
            tag += 1
        elif roll < 0.75 and tag:
            script.append(("cancel", f"t{rng.randrange(tag)}"))
        elif roll < 0.92:
            script.append(("run_until", rng.choice([0, 1, 5, 60, 513, 2000])))
        else:
            script.append(("run",))
    return script


# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(12))
def test_randomized_scripts_match_legacy(seed):
    rng = random.Random(987_000 + seed)
    for round_no in range(40):
        script = random_script(rng)
        fast, slow = observe(script)
        if fast != slow:
            minimal = shrink(script)
            pytest.fail(
                f"engines diverged (seed {seed}, round {round_no}); "
                f"minimal script: {minimal!r}\n"
                f"fast:   {exec_script(Engine(), minimal)}\n"
                f"legacy: {exec_script(LegacyEngine(), minimal)}")


def test_interleaved_same_cycle_schedule_and_call_order():
    # schedule() and schedule_call() share one seq counter: an interleaved
    # same-cycle mix must fire in exact submission order on both engines.
    script = [("sched", 5, "a", ()), ("call", 5, "b", ()),
              ("sched", 5, "c", ()), ("call", 5, "d", ()),
              ("call", 5, "e", ()), ("sched", 5, "f", ())]
    fast, slow = observe(script)
    assert fast == slow
    assert [tag for _, tag in fast[0]] == ["a", "b", "c", "d", "e", "f"]


def test_cancel_of_far_future_event_matches():
    script = [("sched", 5000, "far", ()), ("sched", 3, "near", ()),
              ("cancel", "far"), ("run",)]
    fast, slow = observe(script)
    assert fast == slow
    assert fast[3] == 0  # nothing pending on either engine


def test_park_and_resume_with_earlier_insertion():
    # run(until) parks with the next cycle still queued; a later schedule
    # targets an earlier cycle, which must fire first on resume.
    script = [("sched", 100, "late", ()), ("run_until", 10),
              ("sched", 20, "early", ()), ("run",)]
    fast, slow = observe(script)
    assert fast == slow
    assert [tag for _, tag in fast[0]] == ["early", "late"]


# ----------------------------------------------------------------------
# Drain-path edges: the fast engine walks a cycle's bucket by index, so
# stop() and same-cycle appends happen mid-walk; these pins hold on both
# engines.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_cls", [Engine, LegacyEngine],
                         ids=["fast", "legacy"])
def test_stop_from_bare_callback_mid_drain(engine_cls):
    # stop() issued *inside* a bare schedule_call callback must halt the
    # drain before the next entry of the same bucket fires, and a second
    # run() must resume exactly where it left off.
    eng = engine_cls()
    log = []
    eng.schedule_call(5, lambda: log.append("a"))
    eng.schedule_call(5, lambda: (log.append("stop"), eng.stop()))
    eng.schedule_call(5, lambda: log.append("b"))
    eng.schedule_call(9, lambda: log.append("later"))
    eng.run()
    assert log == ["a", "stop"]
    eng.run()
    assert log == ["a", "stop", "b", "later"]


def test_event_appended_to_current_bucket_mid_drain():
    # A bare callback scheduling a cancellable *Event* into its own cycle
    # extends the bucket the fast engine is walking. Firing order must
    # stay submission order on both engines, and cancelling the fresh
    # handle from a sibling callback must suppress it.
    def script_ops(eng, log, cancel_it):
        box = {}

        def planter():
            log.append("plant")
            box["h"] = eng.schedule(eng.now, lambda: log.append("event"))

        def sibling():
            log.append("sibling")
            if cancel_it:
                box["h"].cancel()

        eng.schedule_call(7, planter)
        eng.schedule_call(7, sibling)
        eng.schedule_call(7, lambda: log.append("tail"))

    for cancel_it, expect in ((False, ["plant", "sibling", "tail",
                                       "event"]),
                              (True, ["plant", "sibling", "tail"])):
        logs = []
        for engine_cls in (Engine, LegacyEngine):
            eng = engine_cls()
            log = []
            script_ops(eng, log, cancel_it)
            eng.run()
            logs.append(log)
            assert log == expect, (engine_cls.__name__, cancel_it)
        assert logs[0] == logs[1]


# ----------------------------------------------------------------------
# End-to-end: a seeded Fig. 9 cell must be bit-identical across engines.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol,workload",
                         [("RCC", "bfs"), ("TCS", "dlb"), ("MESI", "bfs")])
def test_fig9_cell_payload_identical_across_engines(monkeypatch, protocol,
                                                    workload):
    cell = SimCell(cfg=GPUConfig.small(), protocol=protocol,
                   workload=workload, intensity=0.25, seed=1234)
    fast = env_run_cell(cell).to_payload()
    monkeypatch.setattr(gpusim, "Engine", LegacyEngine)
    legacy = env_run_cell(cell).to_payload()
    assert json.dumps(fast, sort_keys=True) == json.dumps(legacy,
                                                          sort_keys=True)
