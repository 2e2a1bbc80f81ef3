"""Protocol registry: build L1/L2 controller sets by protocol name.

Central place that knows, for each protocol, which controller classes to
instantiate, how many NoC virtual channels it needs for deadlock freedom
(energy model input), and which consistency model the core must enforce.

The protocol set is fixed: :func:`available_protocols` /
:func:`sc_protocols` / :func:`wo_protocols` are the canonical enumerations
used by sweeps and fuzz campaigns. The differential fuzzer checks
deliberately broken toy protocols through its own executor
(:mod:`repro.fuzz.toy`), not through this registry.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.coherence.ideal import IdealL1Controller, IdealL2Controller
from repro.coherence.mesi import MESIL1Controller, MESIL2Controller
from repro.coherence.tc import TCL1Controller, TCL2Controller
from repro.config import GPUConfig, consistency_of
from repro.core.rcc_l1 import RCCL1Controller
from repro.core.rcc_l2 import RCCL2Controller
from repro.core.rcc_wo import RCCWOL1Controller
from repro.core.rollover import RolloverManager
from repro.core.timestamps import timestamp_guard_band
from repro.errors import ConfigError

#: Virtual channels needed for deadlock freedom (paper Table III: 5 for
#: MESI, 2 otherwise).
VIRTUAL_CHANNELS: Dict[str, int] = {
    "MESI": 5,
    "SC-IDEAL": 5,
    "TCS": 2,
    "TCW": 2,
    "RCC": 2,
    "RCC-WO": 2,
}


class ProtocolInstance:
    """The constructed controllers for one simulation."""

    def __init__(self, name: str, l1s: List[Any], l2s: List[Any],
                 rollover: RolloverManager = None):
        self.name = name
        self.consistency = consistency_of(name)
        self.virtual_channels = VIRTUAL_CHANNELS[name]
        self.l1s = l1s
        self.l2s = l2s
        self.rollover = rollover


# ----------------------------------------------------------------------
# Per-protocol builders
# ----------------------------------------------------------------------

def _build_rcc(name: str, engine, cfg: GPUConfig, noc, amap, drams,
               backing) -> ProtocolInstance:
    rollover = RolloverManager(
        engine,
        threshold=cfg.ts.max_timestamp - timestamp_guard_band(cfg.ts.lease_max),
    )
    l1_cls = RCCL1Controller if name == "RCC" else RCCWOL1Controller
    l1s = [l1_cls(i, engine, cfg, noc, amap, rollover)
           for i in range(cfg.n_cores)]
    l2s = [RCCL2Controller(j, engine, cfg, noc, amap, drams[j], backing,
                           rollover)
           for j in range(cfg.l2_banks)]
    rollover.wire(l1s, l2s, drams)
    return ProtocolInstance(name, l1s, l2s, rollover)


def _build_tc(name: str, engine, cfg: GPUConfig, noc, amap, drams,
              backing) -> ProtocolInstance:
    strong = name == "TCS"
    l1s = [TCL1Controller(i, engine, cfg, noc, amap, strong)
           for i in range(cfg.n_cores)]
    l2s = [TCL2Controller(j, engine, cfg, noc, amap, drams[j], backing,
                          strong)
           for j in range(cfg.l2_banks)]
    return ProtocolInstance(name, l1s, l2s)


def _build_mesi(name: str, engine, cfg: GPUConfig, noc, amap, drams,
                backing) -> ProtocolInstance:
    l1s = [MESIL1Controller(i, engine, cfg, noc, amap)
           for i in range(cfg.n_cores)]
    l2s = [MESIL2Controller(j, engine, cfg, noc, amap, drams[j], backing)
           for j in range(cfg.l2_banks)]
    return ProtocolInstance(name, l1s, l2s)


def _build_ideal(name: str, engine, cfg: GPUConfig, noc, amap, drams,
                 backing) -> ProtocolInstance:
    l1s = [IdealL1Controller(i, engine, cfg, noc, amap)
           for i in range(cfg.n_cores)]
    l2s = [IdealL2Controller(j, engine, cfg, noc, amap, drams[j], backing)
           for j in range(cfg.l2_banks)]
    for l2 in l2s:
        l2.wire_l1s(l1s)
    return ProtocolInstance(name, l1s, l2s)


#: name -> builder(name, engine, cfg, noc, amap, drams, backing).
_BUILDERS: Dict[str, Callable[..., ProtocolInstance]] = {
    "RCC": _build_rcc,
    "RCC-WO": _build_rcc,
    "TCS": _build_tc,
    "TCW": _build_tc,
    "MESI": _build_mesi,
    "SC-IDEAL": _build_ideal,
}


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------

def available_protocols() -> List[str]:
    """All registered protocol names, in a stable order."""
    return sorted(_BUILDERS)


def sc_protocols() -> List[str]:
    """Registered protocols whose cores enforce sequential consistency."""
    return [p for p in available_protocols() if consistency_of(p) == "sc"]


def wo_protocols() -> List[str]:
    """Registered protocols running weakly ordered (fence-based)."""
    return [p for p in available_protocols() if consistency_of(p) == "wo"]


def build_protocol(name: str, engine, cfg: GPUConfig, noc, amap, drams,
                   backing) -> ProtocolInstance:
    """Instantiate all L1 and L2 controllers for protocol ``name``."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ConfigError(f"unknown protocol {name!r}; choose from "
                          f"{available_protocols()}")
    return builder(name, engine, cfg, noc, amap, drams, backing)
