"""What the benchmark runs and reports: workloads, metrics, yardstick.

Shared by the parent (``run.py``), the measuring subprocess
(``worker.py``), the A/B script (``ab.py``) and the tests. It imports
nothing from the simulator, so the benchmark's definitions cannot change
when the simulator under test does.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Dict, List, Sequence, Tuple

#: Seed whose payload digests are pinned in ``digests.json``.
PIN_SEED = 1234

#: Seconds one run measures when ``--seconds`` is not given. Must equal
#: ``run_seconds`` in BENCHMARK.json (checked by the tests).
DEFAULT_SECONDS = 15

#: Fresh processes the set-up time is measured in; ``setup_s`` is their
#: median. A fresh process pays every import-time and first-build cost,
#: so work moved out of ``run()`` into set-up cannot hide in a warm cache.
SETUP_PROCS = 3

#: Reference speed of :func:`calibrate`, in events/s. Calibrated seconds
#: are raw seconds scaled by (measured events/s / this): seconds on a
#: host that runs the loop at exactly this speed. The value is
#: 17.0e6 x 0.0655: 17.0e6 is the score of ``repro.perf.bench.calibrate``
#: in BENCH_2026-08-09.json, and 0.0655 the median ratio of this loop's
#: speed to that one's over 60 interleaved measurements (quartiles
#: 0.0639-0.0666), so calibrated seconds keep that report's scale.
REFERENCE_EVENTS_PER_S = 1.1135e6

#: A cell is (protocol, model, intensity).
Cell = Tuple[str, str, float]

#: The paper's twelve Table IV models, in its presentation order.
_TABLE4 = ("bh", "bfs", "cl", "dlb", "stn", "vpr",
           "hsp", "kmn", "lps", "ndl", "sr", "lud")

#: Workload name -> its cells, in run order, on ``GPUConfig.bench()``.
#: Each workload loads a different layer of the simulator (README.md
#: has the measured shares).
WORKLOADS: Dict[str, List[Cell]] = {
    # The serial Fig. 9 sweep at the harness's intensity: every layer in
    # the paper's proportions. One pass (~22-26 s on a 2-vCPU host)
    # outlasts the default time box, so a run makes exactly one pass.
    "fig9": [(p, m, 0.25) for p in ("MESI", "TCS", "TCW", "RCC")
             for m in _TABLE4],
    # Load-dominated, with a working set far larger than L1 and L2:
    # the L1, NoC, L2 and DRAM handlers carry the run.
    "sc-miss": [(p, m, i) for p in ("MESI", "TCS", "RCC")
                for m, i in (("bfs", 0.25), ("vpr", 0.25),
                             ("thrash", 1.0))],
    # Store-dominated: invalidation ping-pong, lease waits and rollover
    # pressure through the same L1/L2 layers, plus the SC issue stage.
    "sc-store": [(p, m, i) for p in ("MESI", "TCS", "RCC")
                 for m, i in (("dlb", 0.25), ("pingpong", 1.0),
                              ("storm", 1.0))],
    # Weak ordering saturates the L2 MSHRs; retry polls that reach no
    # handler make the engine the main cost. The control for handler
    # work.
    "wo-retry": [(p, m, 0.25) for p in ("TCW", "RCC-WO")
                 for m in ("kmn", "hsp", "sr")]
                + [("RCC-WO", "thrash", 1.0)],
}

#: ``--smoke`` runs the first cells of each workload on the small machine.
SMOKE_CELLS_PER_WORKLOAD = 2


def cells_for(workload: str, smoke: bool = False) -> List[Cell]:
    cells = WORKLOADS[workload]
    return cells[:SMOKE_CELLS_PER_WORKLOAD] if smoke else list(cells)


def label(cell: Sequence) -> str:
    """``PROTOCOL/model@intensity``, the key of a cell everywhere."""
    protocol, model, intensity = cell
    return f"{protocol}/{model}@{float(intensity)}"


#: End-to-end metrics: name -> unit. Bounds live in BENCHMARK.json.
END_TO_END: Dict[str, str] = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
}

#: Layers traced below ``GPUSimulator.run``, named after the simulator's
#: modules; ``sim`` (the rest of ``run()``) is reported as sim.finish_s.
LAYERS = ("timing", "gpu", "l1", "noc", "l2", "dram")

#: Per-layer metrics: name -> unit.
PER_LAYER: Dict[str, str] = {
    "timing.events": "count",
    "timing.other_events": "count",
    "timing.self_s": "s",
    "timing.share": "ratio",
    "gpu.calls": "count",
    "gpu.self_s": "s",
    "gpu.share": "ratio",
    "gpu.ticks_per_op": "ratio",
    "gpu.sc_stall_cycles": "cycles",
    "gpu.structural_stalls": "count",
    "l1.calls": "count",
    "l1.self_s": "s",
    "l1.share": "ratio",
    "l1.load_hit_rate": "ratio",
    "l1.expired_frac": "ratio",
    "noc.calls": "count",
    "noc.self_s": "s",
    "noc.share": "ratio",
    "noc.flits_per_op": "ratio",
    "l2.calls": "count",
    "l2.self_s": "s",
    "l2.share": "ratio",
    "l2.hit_rate": "ratio",
    "l2.renewable_frac": "ratio",
    "l2.store_lease_wait_cycles": "cycles",
    "l2.invalidations_sent": "count",
    "dram.calls": "count",
    "dram.self_s": "s",
    "dram.share": "ratio",
    "dram.row_hit_rate": "ratio",
    "workloads.generate_s": "s",
    "sim.build_s": "s",
    "sim.import_s": "s",
    "sim.finish_s": "s",
    "trace.overhead": "ratio",
}


def calibrate(events: int = 5_000, repeats: int = 3) -> float:
    """Host speed in events/s of a frozen miniature event loop, best of N.

    A heap of (cycle, key) events, each updating a list record in a dict
    and scheduling a successor: the operations the simulator's own loop
    is made of. Recorded side by side with the ``acc += i * i`` loop of
    ``repro.perf.bench.calibrate`` on a shared 2-vCPU host, it kept the
    worst cross-seed spread of ``run_s`` lower (README.md,
    "Calibration"). It lives here so that no change to the simulator can
    change the yardstick.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        heap: List[Tuple[int, int]] = []
        records: Dict[int, List] = {}
        for i in range(256):
            heapq.heappush(heap, (i, i))
        for _ in range(events):
            cycle, key = heapq.heappop(heap)
            rec = records.get(key)
            if rec is None:
                rec = records[key] = [0, cycle, str(key)]
            rec[0] += 1
            rec[1] = cycle
            heapq.heappush(heap, (cycle + 1 + (key * 7 + rec[0]) % 13,
                                  (key * 31 + rec[0]) % 8191))
        best = min(best, time.perf_counter() - t0)
    return events / best


def calibration_factor(before: float, after: float) -> float:
    """Multiplier from raw to calibrated seconds for a span bracketed by
    two calibration scores."""
    return (before + after) / 2.0 / REFERENCE_EVENTS_PER_S


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
