"""Differential battery: fast bucketed engine vs the original heap engine.

Two layers of evidence that the two-level queue preserves the engine's
determinism contract (events fire in exact ``(cycle, seq)`` order):

* randomized schedule/run scripts replayed against both engines must
  produce identical firing logs — with a greedy shrinker so a failure
  prints its minimal script;
* a seeded Fig. 9 sweep cell run end-to-end on each engine must produce
  bit-identical result payloads.

The same two layers check retry trains (:meth:`Engine.poll`): randomized
poll scripts against synthetic banks, and whole cells of every protocol
that retries, compared by payload and by sanitizer event stream, on
machines small enough that L2 MSHRs saturate and RCC rolls over.

The oracle, :class:`LegacyEngine`, is the single-heap engine the
simulator shipped with before the bucketed one replaced it, cut to the
API the simulator still calls; its ``poll`` re-checks every retry at
every re-presentation. Do not optimize it; its value is being the
unoptimized reference.
"""

import dataclasses
import hashlib
import heapq
import json
import random
from typing import Callable, List, Optional, Tuple

import pytest

from repro.coherence.mesi import MESIL2Controller
from repro.coherence.tc import TCL2Controller
from repro.config import GPUConfig
from repro.core.rcc_l2 import RCCL2Controller
from repro.errors import DeadlockError, SimulationError
from repro.exec import SimCell
from repro.sanitize.sanitizer import Sanitizer
from repro.sim import gpusim
from repro.timing.engine import Engine
from repro.workloads import get_workload
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

    def poll(self, delay: int, check: Callable[[], object],
             resume: Callback) -> None:
        """Re-check every ``delay`` cycles; resume once ``check`` is falsy."""
        def retry() -> None:
            if check():
                self.poll(delay, check, resume)
            else:
                resume()
        self.schedule(self.now + delay, retry)

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


# ----------------------------------------------------------------------
# Retry trains: randomized poll scripts against synthetic banks
# ----------------------------------------------------------------------
class Bank:
    """A synthetic L2 bank: a level that polls wait on, and a key that
    moves with it."""

    def __init__(self) -> None:
        self.level = 0
        self.gen = 0

    def wait_key(self) -> int:
        return self.gen


def exec_poll_script(engine, script):
    """Run ``script`` (see :func:`random_poll_script`); log every event
    and every resume with its cycle."""
    log = []
    banks = [Bank() for _ in range(3)]
    #: Unkeyed polls wait on this one; it has no key to consult.
    world = Bank()

    def act(actions):
        for action in actions:
            kind = action[0]
            if kind == "lift":
                _, which, amount = action
                bank = world if which is None else banks[which]
                bank.level += amount
                bank.gen += 1
            elif kind == "sched":
                _, delay, tag, nested = action
                engine.schedule(engine.now + delay, event(tag, nested))
            else:
                _, delay, tag, which, need, nested = action
                engine.poll(delay, *poller(tag, which, need, nested))

    def event(tag, actions):
        def cb():
            log.append((engine.now, tag))
            act(actions)
        return cb

    def poller(tag, which, need, actions):
        bank = world if which is None else banks[which]
        blocked = True if which is None else bank

        def check():
            return blocked if bank.level < need else None

        def resume():
            log.append((engine.now, tag))
            act(actions)
        return check, resume

    # Levels only rise, so after this lift every check passes and every
    # poll resumes: each script terminates.
    engine.schedule(300, event("lift-all", [("lift", which, 100)
                                            for which in (0, 1, 2, None)]))
    for op in script:
        if op[0] == "run":
            engine.run()
        else:
            act([op])
    engine.run()
    return log, engine.now, engine.events_fired


def random_poll_script(rng, depth=2):
    """Top-level polls and events whose callbacks lift bank levels and
    schedule more polls and events; delays straddle the poll period."""
    def actions(d):
        out = []
        for j in range(rng.randrange(0, 3)):
            r = rng.random()
            if r < 0.4:
                out.append(("lift", rng.choice([0, 1, 2, None]),
                            rng.randrange(1, 3)))
            elif r < 0.7 or d == 0:
                out.append(("sched", rng.choice([0, 1, 4, 8, 16, 40]),
                            f"e{rng.randrange(10 ** 6)}",
                            actions(d - 1) if d else []))
            else:
                out.append(poll(d - 1))
        return out

    def poll(d):
        return ("poll", rng.choice([8, 8, 8, 4]), f"p{rng.randrange(10 ** 6)}",
                rng.choice([0, 1, 2, None]), rng.randrange(0, 6),
                actions(d) if d > 0 else [])

    script = []
    for _ in range(rng.randrange(4, 30)):
        r = rng.random()
        if r < 0.45:
            script.append(poll(depth))
        elif r < 0.9:
            script.append(("sched", rng.choice([0, 3, 8, 13, 30, 600]),
                           f"t{rng.randrange(10 ** 6)}", actions(depth)))
        else:
            script.append(("run",))
    return script


@pytest.mark.parametrize("seed", range(8))
def test_randomized_poll_scripts_match_legacy(seed):
    rng = random.Random(424_000 + seed)
    for round_no in range(40):
        script = random_poll_script(rng)
        fast = exec_poll_script(Engine(), script)
        slow = exec_poll_script(LegacyEngine(), script)
        assert fast == slow, (
            f"engines diverged (seed {seed}, round {round_no}): {script!r}")


def test_poll_members_keep_per_poll_order_around_events():
    # Polls made back to back share a train; an event scheduled between
    # two polls splits it. Whatever a resume schedules lands behind the
    # members ahead of it that were re-armed.
    logs = []
    for engine_cls in (Engine, LegacyEngine):
        eng = engine_cls()
        bank = Bank()
        log = []

        def member(tag, need):
            def resume():
                log.append((eng.now, tag))
                bank.level += 1
                bank.gen += 1
                eng.schedule(eng.now + 8, lambda: log.append((eng.now,
                                                              tag + "!")))
            return lambda: bank if bank.level < need else None, resume

        eng.poll(8, *member("a", 1))
        eng.poll(8, *member("b", 0))
        eng.schedule(8, lambda: log.append((eng.now, "mid")))
        eng.poll(8, *member("c", 2))
        eng.run()
        logs.append((log, eng.now, eng.events_fired))
    assert logs[0] == logs[1]
    assert logs[0][0][:2] == [(8, "b"), (8, "mid")]


def test_poll_delay_must_fit_the_ring():
    eng = Engine()
    for delay in (0, -1, 512):
        with pytest.raises(SimulationError):
            eng.poll(delay, lambda: None, lambda: None)


def test_raising_member_leaves_the_rest_of_its_train_queued():
    # Members ahead of the raising one are re-armed, the raising one is
    # spent (and counted), and the members behind it stay queued at this
    # cycle ahead of everything else there, as in a bucket of
    # ``schedule``d callbacks.
    def scenario(retrying):
        eng = Engine()
        bank = Bank()
        log = []

        def boom():
            log.append((eng.now, "boom"))
            raise RuntimeError("member failed")

        def blocked(tag):
            return (lambda: bank if bank.level < 1 else None,
                    lambda: log.append((eng.now, tag)))

        if retrying:
            eng.poll(8, *blocked("x"))
            eng.poll(8, lambda: None, boom)
            eng.poll(8, *blocked("y"))
        else:
            # The per-poll queue this train stands for.
            def retry(check, resume):
                def cb():
                    if check():
                        eng.schedule(eng.now + 8, cb)
                    else:
                        resume()
                return cb
            eng.schedule(8, retry(*blocked("x")))
            eng.schedule(8, boom)
            eng.schedule(8, retry(*blocked("y")))
        eng.schedule(8, lambda: log.append((eng.now, "after")))
        with pytest.raises(RuntimeError):
            eng.run()
        first = (list(log), eng.events_fired)
        bank.level = 1
        bank.gen += 1
        eng.run()
        return first, log, eng.now, eng.events_fired

    trains = scenario(retrying=True)
    assert trains == scenario(retrying=False)
    assert trains[0] == ([(8, "boom")], 2)
    assert trains[1] == [(8, "boom"), (8, "y"), (8, "after"), (16, "x")]


# ----------------------------------------------------------------------
# Retry trains end to end: every retrying protocol, payload and stream
# ----------------------------------------------------------------------
def _small_l2(mshrs: int, **ts) -> GPUConfig:
    cfg = GPUConfig.small()
    return cfg.replace(
        l2_per_bank=dataclasses.replace(cfg.l2_per_bank, mshr_entries=mshrs),
        ts=dataclasses.replace(cfg.ts, **ts))


#: Two L2 MSHRs per bank saturate the banks; 8-bit timestamps with
#: 32-cycle leases make RCC roll over while requests are blocked.
_ROLLOVER = _small_l2(2, bits=8, lease_max=32, lease_default=32)
_SATURATED = _small_l2(2)
RETRY_GRID = (
    [(_ROLLOVER, p, w) for p in ("RCC", "RCC-WO")
     for w in ("thrash", "kmn", "bh")]
    + [(_SATURATED, p, w) for p in ("TCS", "TCW") for w in ("kmn", "stn")]
    + [(_SATURATED, "MESI", w) for w in ("kmn", "pingpong")])


def _run_counting(monkeypatch, engine_cls, cfg, protocol, workload):
    """Run one sanitized cell on ``engine_cls``. Returns the payload JSON,
    the SHA-256 of the sanitizer event stream, the number of retry checks
    made, and how many of them found their bank frozen for rollover."""
    counts = {"checks": 0, "frozen": 0}
    for cls in (RCCL2Controller, TCL2Controller, MESIL2Controller):
        def counted_check(self, msg, _orig=cls._retry_check):
            check = _orig(self, msg)

            def wrapped():
                counts["checks"] += 1
                counts["frozen"] += bool(getattr(self, "frozen", False))
                return check()
            return wrapped
        monkeypatch.setattr(cls, "_retry_check", counted_check)
    digest = hashlib.sha256()
    real_emit = Sanitizer.emit

    def tee(self, kind, unit, unit_id, cycle, addr, **fields):
        digest.update(json.dumps([kind, unit, unit_id, cycle, addr, fields],
                                 sort_keys=True).encode() + b"\n")
        real_emit(self, kind, unit, unit_id, cycle, addr, **fields)

    monkeypatch.setattr(Sanitizer, "emit", tee)
    monkeypatch.setattr(gpusim, "Engine", engine_cls)
    wl = get_workload(workload, intensity=0.25, seed=3)
    result = gpusim.run_simulation(cfg, protocol, wl.generate(cfg), workload,
                                   sanitize=True)
    monkeypatch.undo()
    return (json.dumps(result.to_payload(), sort_keys=True),
            digest.hexdigest(), counts)


def test_retry_trains_match_per_poll_retries_on_every_protocol(monkeypatch):
    skipped = {}
    frozen = {}
    for cfg, protocol, workload in RETRY_GRID:
        payload, stream, trains = _run_counting(monkeypatch, Engine, cfg,
                                                protocol, workload)
        payload_ref, stream_ref, polls = _run_counting(
            monkeypatch, LegacyEngine, cfg, protocol, workload)
        cell = f"{protocol}/{workload}"
        assert payload == payload_ref, f"{cell}: payload differs"
        assert stream == stream_ref, f"{cell}: sanitizer stream differs"
        skipped[protocol] = (skipped.get(protocol, 0)
                             + polls["checks"] - trains["checks"])
        frozen[protocol] = frozen.get(protocol, 0) + polls["frozen"]
    # Every retrying protocol took the skip path, and RCC's retries met
    # rollovers (they found their bank frozen).
    assert all(n > 0 for n in skipped.values()), skipped
    assert set(skipped) == {"RCC", "RCC-WO", "TCS", "TCW", "MESI"}
    assert frozen["RCC"] > 0 and frozen["RCC-WO"] > 0, frozen
