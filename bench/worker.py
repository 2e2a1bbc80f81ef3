"""Measuring subprocess of the benchmark; ``run.py`` starts one per job.

Usage (from ``run.py``, never by hand)::

    python bench/worker.py '<job JSON>'

The job names a mode, the cells, the machine config, the seed and the
time box. The worker prints one JSON line with raw samples; ``run.py``
turns them into metrics. It drives the simulator only through its public
API -- ``get_workload(...).generate(cfg)``, ``GPUSimulator(...)``,
``.run()`` and ``SimResult.to_payload()`` -- and imports it from
``PYTHONPATH``, which ``run.py`` points at the tree under test.

Modes:

* ``setup``: import the simulator, then generate and build every cell
  once without running it (cold set-up, one sample of ``setup_s``).
* ``measure``: one discarded warm-up cell, then passes over the cells
  until ``seconds`` have elapsed, each cell bracketed by calibration.
* ``trace``: one warm-up cell, then one pass with a span tracer wrapped
  around each layer's entry points.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

from spec import calibrate

clock = time.perf_counter

#: Payload scalars the per-layer ratios are computed from.
_COUNTS = ("cycles", "events_fired", "mem_ops", "sc_stall_cycles",
           "structural_stalls", "l1_loads", "l1_load_hits",
           "l1_load_expired", "l2_hits", "l2_misses", "l2_gets_expired",
           "l2_renew_grants", "l2_store_lease_wait",
           "l2_invalidations_sent", "total_flits")


class Api:
    """The simulator's public entry points, imported from the tree under
    test (imported on construction, so ``setup`` mode can time it)."""

    def __init__(self, config: str):
        from repro.config import GPUConfig
        from repro.sim.gpusim import GPUSimulator
        from repro.workloads import get_workload
        self.GPUSimulator = GPUSimulator
        self.get_workload = get_workload
        self.cfg = {"bench": GPUConfig.bench,
                    "small": GPUConfig.small}[config]()

    def build(self, cell: List, seed: int):
        """(generate_s, build_s, simulator) for one cell."""
        protocol, model, intensity = cell
        t0 = clock()
        traces = self.get_workload(model, intensity=intensity,
                                   seed=seed).generate(self.cfg)
        t1 = clock()
        sim = self.GPUSimulator(self.cfg, protocol, traces, model)
        return t1 - t0, clock() - t1, sim


def payload_digest(result) -> str:
    """SHA-256 of ``to_payload()``, as ``tests/test_kernel_golden.py``
    computes it."""
    blob = json.dumps(result.to_payload(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _outcome(sim, result) -> Dict[str, Any]:
    payload = result.to_payload()
    counts = {name: payload[name] for name in _COUNTS}
    counts["dram_row_hits"] = sum(d.row_hits for d in sim.drams)
    counts["dram_row_misses"] = sum(d.row_misses for d in sim.drams)
    return {"digest": payload_digest(result), "counts": counts}


def _guarded(cell: List, seed: int, body: Callable[[], Dict[str, Any]]
             ) -> Dict[str, Any]:
    """Run one cell; a raise is recorded as the cell's failure (the
    benchmark counts it) instead of ending the run."""
    sample: Dict[str, Any] = {"cell": list(cell), "seed": seed}
    try:
        sample.update(body())
    except Exception as exc:  # a failing cell is a measured outcome
        traceback.print_exc(file=sys.stderr)
        sample["error"] = f"{type(exc).__name__}: {exc}"
    return sample


def run_cell(api: Api, cell: List, seed: int) -> Dict[str, Any]:
    def body() -> Dict[str, Any]:
        gen_s, build_s, sim = api.build(cell, seed)
        t0 = clock()
        result = sim.run()
        run_s = clock() - t0
        return dict(_outcome(sim, result), generate_s=gen_s,
                    build_s=build_s, run_s=run_s)
    return _guarded(cell, seed, body)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class Tracer:
    """Span stack over wrapped entry points.

    Each span knows its layer and its parent's layer; on exit it adds its
    duration to the parent's child time and its self time (duration minus
    child time) to the (parent, layer) edge. Edges and per-entry call
    counts are held in memory and read once the run ends.
    """

    def __init__(self) -> None:
        self._stack: List[List[Any]] = [["", 0.0]]
        #: (parent layer, layer) -> [calls, self seconds]
        self.edges: Dict[tuple, List[float]] = {}
        self.entry_calls: Counter = Counter()

    def wrap(self, layer: str, entry: str, fn: Callable) -> Callable:
        stack = self._stack
        edges = self.edges
        entry_calls = self.entry_calls

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                key = (parent[0], layer)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, dur - frame[1]]
                else:
                    edge[0] += 1
                    edge[1] += dur - frame[1]
                entry_calls[entry] += 1
        return traced

    def install(self, sim) -> None:
        """Wrap the layer entry points of one built simulator.

        Instance attributes shadow the methods the components call on
        each other; the crossbar handlers are re-registered through
        ``Crossbar.register``. Nothing outside this instance changes.
        """
        wrap = self.wrap
        for core in sim.cores:
            core._tick = wrap("gpu", "gpu._tick", core._tick)
            core.wake = wrap("gpu", "gpu.wake", core.wake)
            core.mem_op_done = wrap("gpu", "gpu.mem_op_done",
                                    core.mem_op_done)
        for l1 in sim.proto.l1s:
            l1.access = wrap("l1", "l1.access", l1.access)
            l1.would_stall = wrap("l1", "l1.would_stall", l1.would_stall)
            sim.noc.register(l1.endpoint,
                             wrap("l1", "l1.on_message", l1.on_message))
        for l2 in sim.proto.l2s:
            sim.noc.register(l2.endpoint,
                             wrap("l2", "l2.on_message", l2.on_message))
        sim.noc.send = wrap("noc", "noc.send", sim.noc.send)
        for dram in sim.drams:
            def access(addr, is_write, token, done, _access=dram.access):
                return _access(addr, is_write, token,
                               wrap("l2", "l2.dram_done", done))
            dram.access = wrap("dram", "dram.access", access)


def trace_cell(api: Api, cell: List, seed: int) -> Dict[str, Any]:
    def body() -> Dict[str, Any]:
        gen_s, build_s, sim = api.build(cell, seed)
        tracer = Tracer()
        tracer.install(sim)
        engine_cls = type(sim.engine)
        original = engine_cls.run
        engine_cls.run = tracer.wrap("timing", "timing.run", original)
        try:
            t0 = clock()
            result = tracer.wrap("sim", "sim.run", sim.run)()
            total_s = clock() - t0
        finally:
            engine_cls.run = original
        edges = [[p, layer, calls, self_s]
                 for (p, layer), (calls, self_s) in tracer.edges.items()]
        return dict(_outcome(sim, result), generate_s=gen_s,
                    build_s=build_s, run_s=total_s, edges=edges,
                    entry_calls=dict(tracer.entry_calls))
    return _guarded(cell, seed, body)


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def _passes(api: Api, job: Dict[str, Any], one_cell: Callable
            ) -> List[List[Dict[str, Any]]]:
    """Passes over the job's cells until ``seconds`` have elapsed (at
    least one); each cell carries the calibration scores taken just
    before and just after it."""
    passes = []
    cal = calibrate()
    start = clock()
    while True:
        samples = []
        for cell in job["cells"]:
            sample = one_cell(api, cell, job["seed"])
            after = calibrate()
            sample["cal"] = [cal, after]
            cal = after
            samples.append(sample)
        passes.append(samples)
        if clock() - start >= job["seconds"]:
            return passes


def setup_mode(job: Dict[str, Any]) -> Dict[str, Any]:
    before = calibrate()
    t0 = clock()
    api = Api(job["config"])
    import_s = clock() - t0
    generate_s = build_s = 0.0
    for cell in job["cells"]:
        gen, build, _sim = api.build(cell, job["seed"])
        generate_s += gen
        build_s += build
    return {"import_s": import_s, "generate_s": generate_s,
            "build_s": build_s, "cal": [before, calibrate()]}


def _timed_mode(job: Dict[str, Any], one_cell: Callable) -> Dict[str, Any]:
    api = Api(job["config"])
    out: Dict[str, Any] = {}
    if job.get("warmup"):
        out["warmup"] = run_cell(api, job["warmup"], job["warmup_seed"])
    out["passes"] = _passes(api, job, one_cell)
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                          .ru_maxrss / 1024.0)
    out["provenance"] = provenance()
    return out


def provenance() -> Dict[str, Any]:
    import repro
    try:
        from repro.kernel import kernel_description
        kernel: Optional[str] = kernel_description()
    except ImportError:  # trees older than the flat kernel
        kernel = None
    return {
        "kernel": kernel,
        "python": platform.python_version(),
        "repro_path": os.path.dirname(os.path.abspath(repro.__file__)),
        "rcc_env": sorted(k for k in os.environ if k.startswith("RCC_")),
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    mode = job["mode"]
    if mode == "setup":
        out = setup_mode(job)
    elif mode == "measure":
        out = _timed_mode(job, run_cell)
    elif mode == "trace":
        out = _timed_mode(dict(job, seconds=0), trace_cell)
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
