"""Flit-based crossbar interconnect.

The paper's NoC (Table III) is one crossbar per direction moving one 32-bit
flit per cycle per port. We model each direction's per-source injection port
as a serializing resource: a message occupies its port for ``flits`` cycles,
then traverses a fixed pipeline (``link_latency``) before delivery. This
captures the first-order contention effect — data-heavy protocols serialize
behind their own traffic — while remaining cheap enough to simulate hundreds
of thousands of messages in Python.

Traffic is accounted per message kind (Fig. 9c's breakdown) and handed to the
energy model per flit-hop.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Tuple

from repro.common.messages import Message
from repro.common.types import MsgKind
from repro.config import NoCConfig
from repro.timing.engine import Engine

DeliverCb = Callable[[Message], None]


class TrafficStats:
    """Flit and message counts broken down by message kind."""

    def __init__(self) -> None:
        self.flits_by_kind: Dict[MsgKind, int] = defaultdict(int)
        self.msgs_by_kind: Dict[MsgKind, int] = defaultdict(int)

    def record(self, msg: Message, flits: int) -> None:
        self.flits_by_kind[msg.kind] += flits
        self.msgs_by_kind[msg.kind] += 1

    @property
    def total_flits(self) -> int:
        return sum(self.flits_by_kind.values())

    @property
    def total_msgs(self) -> int:
        return sum(self.msgs_by_kind.values())

    def grouped_flits(self) -> Dict[str, int]:
        """Paper-style traffic classes: load data, store data, control."""
        groups = {"load_data": 0, "store_data": 0, "control": 0, "renew": 0}
        for kind, flits in self.flits_by_kind.items():
            if kind is MsgKind.DATA:
                groups["load_data"] += flits
            elif kind in (MsgKind.WRITE, MsgKind.ATOMIC, MsgKind.GETX):
                groups["store_data"] += flits
            elif kind is MsgKind.RENEW:
                groups["renew"] += flits
            else:
                groups["control"] += flits
        return groups


class Crossbar:
    """Both directions of the GPU's core<->L2 interconnect."""

    def __init__(self, engine: Engine, cfg: NoCConfig, block_bytes: int = 128,
                 extra_latency: int = 0):
        self.engine = engine
        self.cfg = cfg
        self.block_bytes = block_bytes
        #: Extra per-hop pipeline depth so that the no-contention L1->L2
        #: round trip matches the configured minimum (paper: 340 cycles,
        #: from microbenchmarking real hardware).
        self.extra_latency = extra_latency
        self.stats = TrafficStats()
        #: Per source-endpoint injection-port next-free cycle (each source
        #: endpoint feeds exactly one direction's crossbar).
        self._port_free: Dict[Any, int] = defaultdict(int)
        self._endpoints: Dict[Any, DeliverCb] = {}
        #: Flit counts — and hence port-serialization cycles — depend only
        #: on the message kind (given the fixed block/flit sizes), so both
        #: are computed once per kind.
        self._flit_info: Dict[MsgKind, Tuple[int, int]] = {}
        self._hop_latency = cfg.link_latency + extra_latency

    # ------------------------------------------------------------------
    def register(self, endpoint: Any, deliver: DeliverCb) -> None:
        """Attach an endpoint id (e.g. ``("l2", 0)``) to its handler."""
        self._endpoints[endpoint] = deliver

    # ------------------------------------------------------------------
    def send(self, msg: Message) -> int:
        """Inject ``msg``; returns the delivery cycle.

        The message serializes on its source port (1 flit/cycle), then takes
        ``link_latency`` cycles to cross the switch.
        """
        kind = msg.kind
        info = self._flit_info.get(kind)
        if info is None:
            flits = msg.flits(self.block_bytes, self.cfg.flit_bytes)
            per_cycle = self.cfg.flits_per_cycle_per_port
            info = (flits, (flits + per_cycle - 1) // per_cycle)
            self._flit_info[kind] = info
        flits, serialize = info
        stats = self.stats
        stats.flits_by_kind[kind] += flits
        stats.msgs_by_kind[kind] += 1
        # The direction is a function of the source endpoint, so the source
        # alone keys the injection port (``(direction, src)`` and ``src``
        # are in bijection; the tuple build and extra hash were pure
        # overhead in this hot path).
        key = msg.src
        port_free = self._port_free
        start = port_free[key]
        now = self.engine.now
        if now > start:
            start = now
        port_free[key] = start + serialize
        arrival = start + serialize + self._hop_latency

        handler = self._endpoints.get(msg.dst)
        if handler is None:
            raise KeyError(f"message to unregistered endpoint {msg.dst!r}: {msg!r}")
        self.engine.schedule(arrival, lambda: handler(msg))
        return arrival
