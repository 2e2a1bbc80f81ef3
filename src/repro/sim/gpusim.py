"""The assembled GPU memory-system simulator.

``GPUSimulator`` wires together, for one run:

* one :class:`~repro.timing.engine.Engine`,
* ``n_cores`` SMs with their per-core L1 controllers,
* a two-direction crossbar with enough extra pipeline depth to respect the
  configured minimum L2 round trip,
* ``l2_banks`` L2 bank controllers, each fronting a DRAM partition,
* the protocol controllers chosen from the registry (which also decides the
  core's consistency policy — SC or WO).

``run_simulation`` is the one-call convenience wrapper used by tests,
examples, and the benchmark harness.
"""

from __future__ import annotations

import gc

from typing import Any, Dict, List, Optional

from repro.common.addresses import AddressMap
from repro.coherence.registry import build_protocol
from repro.config import GPUConfig
from repro.errors import ConfigError, DeadlockError
from repro.gpu.core import GPUCore
from repro.gpu.trace import WarpTrace
from repro.gpu.warp import reset_op_seq
from repro.mem.dram import DRAMPartition
from repro.noc.crossbar import Crossbar
from repro.sanitize.sanitizer import Sanitizer
from repro.sim.results import SimResult
from repro.timing.engine import Engine


class GPUSimulator:
    """One configured simulation instance (single-use: build, run, read)."""

    def __init__(self, cfg: GPUConfig, protocol: str,
                 traces: List[List[WarpTrace]],
                 workload_name: str = "custom",
                 record_ops: bool = False,
                 sanitize: bool = False,
                 trace_out: Optional[str] = None):
        cfg.validate()
        if len(traces) != cfg.n_cores:
            raise ConfigError(
                f"need traces for {cfg.n_cores} cores, got {len(traces)}")
        self.cfg = cfg
        self.protocol_name = protocol
        self.workload_name = workload_name
        self.record_ops = record_ops

        reset_op_seq()
        self.engine = Engine(max_cycles=cfg.max_cycles)
        self.amap = AddressMap(cfg.l1.block_bytes, cfg.l2_banks)
        self.noc = Crossbar(
            self.engine, cfg.noc, block_bytes=cfg.l1.block_bytes,
            extra_latency=self._extra_noc_latency(cfg),
        )
        self.backing: Dict[int, Any] = {}
        self.drams = [
            DRAMPartition(self.engine, cfg.dram, j, cfg.l1.block_bytes)
            for j in range(cfg.l2_banks)
        ]
        self.proto = build_protocol(
            protocol, self.engine, cfg, self.noc, self.amap, self.drams,
            self.backing,
        )
        self.sanitizer: Optional[Sanitizer] = None
        if sanitize:
            self.sanitizer = Sanitizer(protocol, cfg, trace_out=trace_out)
            for ctrl in list(self.proto.l1s) + list(self.proto.l2s):
                ctrl.sanitizer = self.sanitizer
            self.engine.diagnostics = self.sanitizer.diagnostics
        self._cores_done = 0
        self.cores: List[GPUCore] = []
        for i in range(cfg.n_cores):
            core = GPUCore(i, self.engine, self.proto.consistency,
                           cfg.wo_max_outstanding, traces[i],
                           on_all_done=self._core_done,
                           record_log=record_ops)
            self.proto.l1s[i].attach_core(core)
            self.cores.append(core)
        self.result: Optional[SimResult] = None

    @staticmethod
    def _extra_noc_latency(cfg: GPUConfig) -> int:
        """Pipeline padding so an uncontended L1<->L2 round trip (control
        request + data response) meets ``l2_min_round_trip``."""
        data_flits = cfg.l1.block_bytes // cfg.noc.flit_bytes + 2
        base = (2 * cfg.noc.link_latency + cfg.l2_per_bank.hit_latency
                + data_flits + 2)
        return max(0, (cfg.l2_min_round_trip - base) // 2)

    # ------------------------------------------------------------------
    def _core_done(self, core_id: int) -> None:
        self._cores_done += 1

    def final_memory(self) -> Dict[int, Any]:
        """Architectural memory after the run: block base address -> the
        data token of the block's last write (blocks never written are
        absent). The DRAM backing store holds written-back values; blocks
        still resident in an L2 are read from the (stable) line there."""
        mem: Dict[int, Any] = dict(self.backing)
        for l2 in self.proto.l2s:
            cache = getattr(l2, "cache", None)
            if cache is None:
                continue
            for line in cache.lines():
                if line.value is None:
                    continue
                if getattr(line.state, "stable", True):
                    mem[line.addr] = line.value
        return mem

    def run(self) -> SimResult:
        for l1 in self.proto.l1s:
            start = getattr(l1, "start", None)
            if start is not None:
                start()
        for core in self.cores:
            core.start()
        # The event loop allocates heavily (records, messages, retry
        # closures), and the cached retry callbacks form reference cycles
        # (msg.meta -> cb -> msg) that keep the generational collector
        # scanning a large, mostly-immortal heap mid-run. One run's garbage
        # fits comfortably in memory, so pause collection for the loop and
        # reclaim the cycles in one sweep afterwards. Purely a wall-clock
        # optimization: allocation order, and hence simulation behavior,
        # is unaffected.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.engine.run()
        finally:
            if gc_was_enabled:
                gc.enable()
                gc.collect()
        if self._cores_done != self.cfg.n_cores:
            stuck = [c.core_id for c in self.cores if not c.finished]
            detail = (f"cores {stuck} never finished "
                      f"({self.protocol_name}/{self.workload_name})")
            if self.sanitizer is not None:
                detail += "\n" + self.sanitizer.diagnostics()
            raise DeadlockError(self.engine.now, detail)
        cycles = max(c.stats.done_cycle or 0 for c in self.cores)
        op_logs = ([rec for c in self.cores for rec in c.op_log]
                   if self.record_ops else [])
        self.result = SimResult(
            protocol=self.protocol_name,
            workload=self.workload_name,
            cycles=cycles,
            cores=self.cores,
            l1s=self.proto.l1s,
            l2s=self.proto.l2s,
            noc=self.noc,
            drams=self.drams,
            virtual_channels=self.proto.virtual_channels,
            op_logs=op_logs,
            rollovers=(self.proto.rollover.rollovers
                       if self.proto.rollover else 0),
            final_memory=self.final_memory(),
            events_fired=self.engine.events_fired,
        )
        return self.result


def run_simulation(cfg: GPUConfig, protocol: str,
                   traces: List[List[WarpTrace]],
                   workload_name: str = "custom",
                   record_ops: bool = False,
                   sanitize: bool = False,
                   trace_out: Optional[str] = None) -> SimResult:
    """Build and run one simulation; returns its :class:`SimResult`."""
    sim = GPUSimulator(cfg, protocol, traces, workload_name, record_ops,
                       sanitize=sanitize, trace_out=trace_out)
    return sim.run()
