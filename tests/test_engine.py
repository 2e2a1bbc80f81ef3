"""Unit tests for the discrete-event engine."""

import pathlib
import re

import pytest

import repro
import repro.timing
from repro.errors import DeadlockError, SimulationError
from repro.timing.engine import Engine


def test_runs_events_in_time_order():
    eng = Engine()
    fired = []
    eng.schedule(10, lambda: fired.append(10))
    eng.schedule(5, lambda: fired.append(5))
    eng.schedule(7, lambda: fired.append(7))
    eng.run()
    assert fired == [5, 7, 10]
    assert eng.now == 10


def test_same_cycle_events_fire_in_schedule_order():
    eng = Engine()
    fired = []
    for i in range(20):
        eng.schedule(3, lambda i=i: fired.append(i))
    eng.run()
    assert fired == list(range(20))


def test_cannot_schedule_in_past():
    eng = Engine()
    eng.schedule(5, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.schedule(3, lambda: None)
    # Refused from inside a callback too, where ``now`` has moved on.
    eng.schedule(9, lambda: eng.schedule(8, lambda: None))
    with pytest.raises(SimulationError):
        eng.run()


def test_max_cycles_guards_against_livelock():
    eng = Engine(max_cycles=100)
    eng.diagnostics = lambda: "recent-events-tail"

    def reschedule():
        eng.schedule(eng.now + 10, reschedule)

    eng.schedule(0, reschedule)
    with pytest.raises(DeadlockError) as err:
        eng.run()
    assert err.value.cycle == 110
    assert "max_cycles=100" in str(err.value)
    assert str(err.value).endswith("\nrecent-events-tail")
    # Cycles 0, 10, ..., 100 fired; the event at 110 never did.
    assert eng.events_fired == 11


def test_events_fired_counter():
    # Same-cycle appends made mid-drain, and far events that migrate into
    # the ring window (and append to their own cycle once there), all fire
    # in scheduling order and are all counted.
    eng = Engine()
    fired = []

    def log(tag):
        return lambda: fired.append((eng.now, tag))

    def near():
        fired.append((eng.now, "near"))
        eng.schedule(eng.now, log("near-append"))

    def far():
        fired.append((eng.now, "far"))
        eng.schedule(eng.now, log("far-append"))
        eng.schedule(eng.now + 511, log("far-edge"))
        eng.schedule(eng.now + 5000, log("farther"))

    eng.schedule(2, near)
    eng.schedule(3000, far)
    eng.schedule(3000, log("far-sibling"))
    eng.schedule(600, log("mid"))
    eng.run()
    assert fired == [(2, "near"), (2, "near-append"), (600, "mid"),
                     (3000, "far"), (3000, "far-sibling"),
                     (3000, "far-append"), (3511, "far-edge"),
                     (8000, "farther")]
    assert eng.events_fired == 8


def test_second_run_after_drain():
    eng = Engine()
    fired = []
    eng.schedule(7, lambda: fired.append(eng.now))
    eng.run()
    assert (eng.now, eng.events_fired) == (7, 1)
    eng.run()  # an empty queue returns at once
    assert (eng.now, eng.events_fired) == (7, 1)
    # The drained cycle, the ring window and the far heap all take
    # events again.
    eng.schedule(7, lambda: fired.append(eng.now))
    eng.schedule(9000, lambda: fired.append(eng.now))
    eng.schedule(300, lambda: fired.append(eng.now))
    eng.run()
    assert fired == [7, 7, 300, 9000]
    assert (eng.now, eng.events_fired) == (9000, 4)


def test_queue_layout_stays_inside_timing():
    # Callers see only the clock and its three verbs; the ring, the far
    # heap, retry trains and their bookkeeping are private to
    # ``repro/timing/``, so no other module may name them or reach into an
    # engine's private attributes.
    assert repro.timing.__all__ == ["Engine"]
    assert {name for name in dir(Engine) if not name.startswith("_")} == {
        "now", "max_cycles", "diagnostics", "events_fired", "schedule",
        "poll", "run"}
    private = re.compile(r"\b(_RING|_MASK|_ring|_ring_cycles|_far|_horizon"
                         r"|_live|_Train)\b|\beng(ine)?\._")
    src = pathlib.Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(src)}:{lineno}: {line.strip()}"
        for path in sorted(src.rglob("*.py"))
        if path.parent != src / "timing"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if private.search(line)]
    assert not offenders, "\n".join(offenders)
