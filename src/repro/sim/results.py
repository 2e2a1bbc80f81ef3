"""Aggregated results of one simulation run.

Everything the paper's figures need is computed here: runtime, SC stall
rates and attribution, load/store latency averages, L1 expiration and renew
rates, interconnect traffic breakdowns, and energy.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common.types import MemOpKind
from repro.noc.energy import EnergyBreakdown, EnergyModel
from repro.stats.histogram import Histogram

#: Bumped whenever the payload schema below changes shape, so stale cache
#: entries written by older code are rejected instead of misread.
#: v2: added ``events_fired`` (engine events per run, the benchmark
#: harness's throughput numerator).
PAYLOAD_VERSION = 2

#: Plain-integer attributes copied verbatim by to_payload/from_payload.
_PAYLOAD_SCALARS = (
    "cycles", "events_fired", "virtual_channels", "rollovers",
    "mem_ops", "sc_stalled_ops", "sc_stall_cycles", "structural_stalls",
    "fence_ops", "fence_wait_cycles",
    "l1_loads", "l1_load_hits", "l1_load_expired", "l1_renews",
    "l1_invalidations",
    "l2_gets", "l2_hits", "l2_misses", "l2_gets_expired", "l2_renew_grants",
    "l2_invalidations_sent", "l2_store_lease_wait", "l2_evictions",
    "total_flits", "total_msgs", "dram_reads", "dram_writes",
)

#: Memory-op kinds aggregated per kind in the stat bundle.
_PAYLOAD_KINDS = (MemOpKind.LOAD, MemOpKind.STORE, MemOpKind.ATOMIC)


def _encode_token(value: Any) -> Any:
    """Data tokens are tuples of ints/strings (see ``CacheLine.value``);
    JSON turns tuples into lists, so decoding restores them."""
    return list(value) if isinstance(value, tuple) else value


def _decode_token(value: Any) -> Any:
    return tuple(value) if isinstance(value, list) else value


class SimResult:
    """Stat bundle for one (protocol, workload, config) run."""

    def __init__(self, protocol: str, workload: str, cycles: int,
                 cores: List[Any], l1s: List[Any], l2s: List[Any],
                 noc: Any, drams: List[Any], virtual_channels: int,
                 op_logs: Optional[List[Any]] = None,
                 rollovers: int = 0,
                 final_memory: Optional[Dict[int, Any]] = None,
                 events_fired: int = 0):
        self.protocol = protocol
        self.workload = workload
        self.cycles = cycles
        #: Timing-engine events fired during the run; with wall-clock this
        #: gives the events/sec throughput the perf harness tracks.
        self.events_fired = events_fired
        self.virtual_channels = virtual_channels
        self.op_logs = op_logs or []
        self.rollovers = rollovers
        #: Block base address -> last-written data token (see
        #: :meth:`GPUSimulator.final_memory`); written blocks only.
        self.final_memory = final_memory or {}

        # ---- core-side aggregation ----
        self.mem_ops = sum(c.stats.mem_ops for c in cores)
        self.mem_ops_by_kind = {
            k: sum(c.stats.mem_ops_by_kind[k] for c in cores)
            for k in (MemOpKind.LOAD, MemOpKind.STORE, MemOpKind.ATOMIC)
        }
        self.latency_sum_by_kind = {
            k: sum(c.stats.latency_sum[k] for c in cores)
            for k in (MemOpKind.LOAD, MemOpKind.STORE, MemOpKind.ATOMIC)
        }
        self.latency_hist: Dict[MemOpKind, Histogram] = {}
        for k in (MemOpKind.LOAD, MemOpKind.STORE, MemOpKind.ATOMIC):
            merged = Histogram()
            for c in cores:
                merged.merge(c.stats.latency_hist[k])
            self.latency_hist[k] = merged
        self.sc_stalled_ops = sum(c.stats.sc_stalled_ops for c in cores)
        self.sc_stall_cycles = sum(c.stats.sc_stall_cycles for c in cores)
        self.sc_stall_by_blocker = {
            k: sum(c.stats.sc_stall_by_blocker[k] for c in cores)
            for k in (MemOpKind.LOAD, MemOpKind.STORE, MemOpKind.ATOMIC)
        }
        self.structural_stalls = sum(c.stats.structural_stalls for c in cores)
        self.fence_ops = sum(c.stats.fence_ops for c in cores)
        self.fence_wait_cycles = sum(c.stats.fence_wait_cycles for c in cores)

        # ---- L1 aggregation ----
        self.l1_loads = sum(l1.stats.loads for l1 in l1s)
        self.l1_load_hits = sum(l1.stats.load_hits for l1 in l1s)
        self.l1_load_expired = sum(l1.stats.load_expired for l1 in l1s)
        self.l1_renews = sum(l1.stats.renews_received for l1 in l1s)
        self.l1_invalidations = sum(l1.stats.invalidations_received for l1 in l1s)

        # ---- L2 aggregation ----
        self.l2_gets = sum(l2.stats.gets for l2 in l2s)
        self.l2_hits = sum(l2.stats.hits for l2 in l2s)
        self.l2_misses = sum(l2.stats.misses for l2 in l2s)
        self.l2_gets_expired = sum(l2.stats.gets_expired for l2 in l2s)
        self.l2_renew_grants = sum(l2.stats.renew_grants for l2 in l2s)
        self.l2_invalidations_sent = sum(l2.stats.invalidations_sent for l2 in l2s)
        self.l2_store_lease_wait = sum(
            l2.stats.store_lease_wait_cycles for l2 in l2s)
        self.l2_evictions = sum(l2.stats.evictions for l2 in l2s)

        # ---- NoC / DRAM ----
        self.total_flits = noc.stats.total_flits
        self.total_msgs = noc.stats.total_msgs
        self.traffic_groups = noc.stats.grouped_flits()
        self.energy: EnergyBreakdown = EnergyModel().estimate(
            noc.stats, cycles, virtual_channels)
        self.dram_reads = sum(d.reads for d in drams)
        self.dram_writes = sum(d.writes for d in drams)

    # ------------------------------------------------------------------
    # Derived metrics (the figures' vocabulary)
    # ------------------------------------------------------------------
    def avg_latency(self, kind: MemOpKind) -> float:
        n = self.mem_ops_by_kind[kind]
        return self.latency_sum_by_kind[kind] / n if n else 0.0

    @property
    def avg_load_latency(self) -> float:
        return self.avg_latency(MemOpKind.LOAD)

    @property
    def avg_store_latency(self) -> float:
        """Stores + atomics (the paper groups them)."""
        n = (self.mem_ops_by_kind[MemOpKind.STORE]
             + self.mem_ops_by_kind[MemOpKind.ATOMIC])
        s = (self.latency_sum_by_kind[MemOpKind.STORE]
             + self.latency_sum_by_kind[MemOpKind.ATOMIC])
        return s / n if n else 0.0

    @property
    def sc_stall_fraction(self) -> float:
        """Fraction of memory ops that ever stalled for SC (Fig. 1a)."""
        return self.sc_stalled_ops / max(1, self.mem_ops)

    @property
    def sc_stall_store_fraction(self) -> float:
        """Fraction of SC stall cycles blocked by a prior store/atomic
        (Fig. 1b)."""
        total = self.sc_stall_cycles
        if not total:
            return 0.0
        st = (self.sc_stall_by_blocker[MemOpKind.STORE]
              + self.sc_stall_by_blocker[MemOpKind.ATOMIC])
        return st / total

    @property
    def sc_stall_resolve_latency(self) -> float:
        """Average cycles to resolve one SC stall (Fig. 8 bottom)."""
        return self.sc_stall_cycles / max(1, self.sc_stalled_ops)

    @property
    def l1_expired_fraction(self) -> float:
        """Fraction of loads finding a V-but-expired block (Fig. 6 left)."""
        return self.l1_load_expired / max(1, self.l1_loads)

    @property
    def renewable_fraction(self) -> float:
        """Of expired-copy refetches, how many the L2 could renew
        (Fig. 6 right)."""
        return self.l2_renew_grants / max(1, self.l2_gets_expired)

    # ------------------------------------------------------------------
    # Serialization (the sweep executor's on-disk result cache)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """Full JSON-able snapshot of the stat bundle.

        Everything the experiments and benchmarks read survives the round
        trip — scalars, per-kind counters, latency histograms, traffic
        groups, energy, and the architectural final memory. ``op_logs``
        (per-op records from ``record_ops`` runs) are deliberately not
        serialized; callers that need them must not cache.
        """
        payload: Dict[str, Any] = {
            "payload_version": PAYLOAD_VERSION,
            "protocol": self.protocol,
            "workload": self.workload,
        }
        for name in _PAYLOAD_SCALARS:
            payload[name] = getattr(self, name)
        payload["mem_ops_by_kind"] = {
            k.name: self.mem_ops_by_kind[k] for k in _PAYLOAD_KINDS}
        payload["latency_sum_by_kind"] = {
            k.name: self.latency_sum_by_kind[k] for k in _PAYLOAD_KINDS}
        payload["sc_stall_by_blocker"] = {
            k.name: self.sc_stall_by_blocker[k] for k in _PAYLOAD_KINDS}
        payload["latency_hist"] = {
            k.name: self.latency_hist[k].to_dict() for k in _PAYLOAD_KINDS}
        payload["traffic_groups"] = dict(self.traffic_groups)
        payload["energy"] = {
            "router_dynamic": self.energy.router_dynamic,
            "link_dynamic": self.energy.link_dynamic,
            "static": self.energy.static,
        }
        payload["final_memory"] = [
            [addr, _encode_token(value)]
            for addr, value in sorted(self.final_memory.items())]
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SimResult":
        """Rebuild a result serialized with :meth:`to_payload`."""
        if payload.get("payload_version") != PAYLOAD_VERSION:
            raise ValueError(
                f"unsupported SimResult payload version: "
                f"{payload.get('payload_version')!r}")
        res = cls.__new__(cls)
        res.protocol = payload["protocol"]
        res.workload = payload["workload"]
        for name in _PAYLOAD_SCALARS:
            setattr(res, name, payload[name])
        res.mem_ops_by_kind = {
            k: payload["mem_ops_by_kind"][k.name] for k in _PAYLOAD_KINDS}
        res.latency_sum_by_kind = {
            k: payload["latency_sum_by_kind"][k.name]
            for k in _PAYLOAD_KINDS}
        res.sc_stall_by_blocker = {
            k: payload["sc_stall_by_blocker"][k.name]
            for k in _PAYLOAD_KINDS}
        res.latency_hist = {
            k: Histogram.from_dict(payload["latency_hist"][k.name])
            for k in _PAYLOAD_KINDS}
        res.traffic_groups = dict(payload["traffic_groups"])
        res.energy = EnergyBreakdown(**payload["energy"])
        res.final_memory = {
            int(addr): _decode_token(value)
            for addr, value in payload["final_memory"]}
        res.op_logs = []
        return res

    def as_dict(self) -> Dict[str, Any]:
        """Flat summary for tables / JSON dumps."""
        return {
            "protocol": self.protocol,
            "workload": self.workload,
            "cycles": self.cycles,
            "mem_ops": self.mem_ops,
            "avg_load_latency": round(self.avg_load_latency, 2),
            "avg_store_latency": round(self.avg_store_latency, 2),
            "sc_stall_fraction": round(self.sc_stall_fraction, 4),
            "sc_stall_store_fraction": round(self.sc_stall_store_fraction, 4),
            "sc_stall_resolve_latency": round(self.sc_stall_resolve_latency, 2),
            "l1_expired_fraction": round(self.l1_expired_fraction, 4),
            "renewable_fraction": round(self.renewable_fraction, 4),
            "total_flits": self.total_flits,
            "energy_total": round(self.energy.total, 1),
            "rollovers": self.rollovers,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<SimResult {self.protocol}/{self.workload} "
                f"cycles={self.cycles} memops={self.mem_ops}>")
