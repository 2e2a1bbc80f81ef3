"""Differential battery: fast bucketed engine vs the original heap engine.

Two layers of evidence that the two-level queue preserves the engine's
determinism contract (events fire in exact ``(cycle, seq)`` order):

* randomized schedule/run scripts replayed against both engines must
  produce identical firing logs — with a greedy shrinker so a failure
  prints its minimal script;
* a seeded Fig. 9 sweep cell run end-to-end on each engine must produce
  bit-identical result payloads.

The oracle, :class:`LegacyEngine`, is the single-heap engine the
simulator shipped with before the bucketed one replaced it, cut to the
API the simulator still calls. Do not optimize it; its value is being
the unoptimized reference.
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
class LegacyEngine:
    """A deterministic discrete-event simulator clock (single global heap)."""

    def __init__(self, max_cycles: int = 500_000_000):
        self.now: int = 0
        self.max_cycles = max_cycles
        self._heap: List[Tuple[int, int, Callback]] = []
        self._seq = 0
        self.events_fired = 0
        #: Optional () -> str hook appended to DeadlockError messages.
        self.diagnostics: Optional[Callable[[], str]] = None

    def schedule(self, cycle: int, callback: Callback) -> None:
        """Schedule ``callback`` to fire at absolute ``cycle``."""
        if cycle < self.now:
            raise SimulationError(
                f"cannot schedule event in the past (now={self.now}, at={cycle})"
            )
        self._seq += 1
        heapq.heappush(self._heap, (cycle, self._seq, callback))

    def run(self) -> None:
        """Fire events in ``(cycle, seq)`` order until the heap drains."""
        while self._heap:
            cycle, _, callback = heapq.heappop(self._heap)
            if cycle > self.max_cycles:
                detail = (f"event horizon exceeded max_cycles="
                          f"{self.max_cycles}; likely livelock or runaway "
                          "simulation")
                if self.diagnostics is not None:
                    detail += "\n" + self.diagnostics()
                raise DeadlockError(self.now, detail)
            self.now = cycle
            callback()
            self.events_fired += 1


# ----------------------------------------------------------------------
# Script interpreter
# ----------------------------------------------------------------------
# A script is a list of top-level ops:
#   ("sched", delay, tag, nested)  schedule(now + delay)
#   ("run",)                       drain everything queued so far
# ``nested`` is a list of (delay, tag) scheduled from inside the callback
# when it fires — the mid-drain insertion case the bucket walk must
# handle.


def exec_script(engine, script):
    log = []

    def make_cb(tag, nested):
        def cb():
            log.append((engine.now, tag))
            for delay, sub in nested:
                engine.schedule(engine.now + delay, make_cb(sub, ()))
        return cb

    for op in script:
        if op[0] == "sched":
            _, delay, tag, nested = op
            engine.schedule(engine.now + delay, make_cb(tag, nested))
        else:
            engine.run()
    engine.run()
    return log, engine.now, engine.events_fired


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
    #: Delays straddle the 512-cycle ring window so far-heap migration and
    #: horizon slides, within a run and across mid-script runs, all get
    #: exercised.
    delays = [0, 0, 1, 2, 3, 7, 8, 50, 200, 511, 512, 513, 900, 5000]
    script = []
    for tag in range(rng.randrange(4, 40)):
        if rng.random() < 0.85:
            nested = [(rng.choice(delays), f"n{tag}-{j}")
                      for j in range(rng.randrange(0, 4))]
            script.append(("sched", rng.choice(delays), f"t{tag}", nested))
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


def test_event_appended_to_current_bucket_mid_drain():
    # A callback scheduling into its own cycle extends the bucket the fast
    # engine is walking. The new event fires after every event already
    # queued for that cycle, on both engines.
    logs = []
    for engine_cls in (Engine, LegacyEngine):
        eng = engine_cls()
        log = []

        def planter(eng=eng, log=log):
            log.append("plant")
            eng.schedule(eng.now, lambda: log.append("event"))

        eng.schedule(7, planter)
        eng.schedule(7, lambda log=log: log.append("sibling"))
        eng.schedule(7, lambda log=log: log.append("tail"))
        eng.run()
        assert log == ["plant", "sibling", "tail", "event"], engine_cls
        logs.append((log, eng.now, eng.events_fired))
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
