"""Interconnect energy model (ORION-2.0-style, simplified).

The paper uses ORION 2.0 to estimate NoC energy and reports a breakdown by
component (Fig. 9b). We keep the structure of that estimate — per-flit
dynamic energy split between router crossbar/buffers and links, plus static
(leakage) energy proportional to runtime and to the number of virtual
channels provisioned — without ORION's technology tables. Only *relative*
energies matter for the paper's claims (MESI needs 5 VCs and moves more
flits; timestamp protocols need 2), and those relations are preserved.

All values are in arbitrary energy units (aeu); figures normalize to MESI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.noc.crossbar import TrafficStats


@dataclass
class EnergyParams:
    """Per-event energy costs (arbitrary units)."""

    router_per_flit: float = 1.0      # buffer write/read + xbar traversal
    link_per_flit: float = 0.6        # wire toggling per hop
    #: Buffer leakage + clocking scales with provisioned VC buffers per
    #: port; at GPU NoC utilizations this static share is comparable to
    #: the dynamic one (ORION 2.0's main correction over ORION 1.0), which
    #: is what makes MESI's five virtual networks expensive.
    static_per_cycle_per_vc: float = 0.35
    hops: int = 2                     # core->xbar->bank (both directions alike)


@dataclass
class EnergyBreakdown:
    """Energy split the way Fig. 9b plots it."""

    router_dynamic: float = 0.0
    link_dynamic: float = 0.0
    static: float = 0.0

    @property
    def total(self) -> float:
        return self.router_dynamic + self.link_dynamic + self.static

    def as_dict(self) -> Dict[str, float]:
        return {
            "router_dynamic": self.router_dynamic,
            "link_dynamic": self.link_dynamic,
            "static": self.static,
            "total": self.total,
        }


class EnergyModel:
    """Computes an :class:`EnergyBreakdown` from traffic stats and runtime."""

    def __init__(self, params: EnergyParams = None):
        self.params = params or EnergyParams()

    def estimate(self, traffic: TrafficStats, cycles: int,
                 virtual_channels: int) -> EnergyBreakdown:
        p = self.params
        flits = traffic.total_flits
        return EnergyBreakdown(
            router_dynamic=flits * p.router_per_flit,
            link_dynamic=flits * p.link_per_flit * p.hops,
            static=cycles * p.static_per_cycle_per_vc * virtual_channels,
        )
