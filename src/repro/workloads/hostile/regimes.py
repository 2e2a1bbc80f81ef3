"""The five canonical hostile regimes the lab sweeps.

A :class:`HostileRegime` couples a hostile generator with the *machine*
conditions that make it hostile — the storm is only a storm against a
narrow timestamp width — plus the knob subspace the workload fuzzer
mutates. Machine conditions ride as ``ts_overrides`` on the sweep cell
(the same mechanism the ablation experiments use), so a regime run is an
ordinary, cacheable, fork-portable :class:`~repro.exec.cells.SimCell`.

``sample_cell_inputs`` is the mutation step of ``repro-fuzz
--workloads``: one seeded draw over the regime's workload knobs and
timestamp ranges, returning the ``(workload spec, ts_overrides)`` pair
that fully names the mutated run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple, Type

from repro.errors import ConfigError
from repro.workloads.hostile.base import HostileWorkload
from repro.workloads.hostile.bursty import BurstyPhases
from repro.workloads.hostile.pingpong import FalseSharingPingPong
from repro.workloads.hostile.rwext import ReaderWriterExtremes
from repro.workloads.hostile.storm import RolloverStorm
from repro.workloads.hostile.thrash import L2Thrash

#: The hostile generators, keyed by workload name (merged into
#: ``get_workload`` lookup by the registry).
HOSTILE_WORKLOADS: Dict[str, Type[HostileWorkload]] = {
    cls.name: cls
    for cls in (RolloverStorm, FalseSharingPingPong, ReaderWriterExtremes,
                BurstyPhases, L2Thrash)
}


@dataclass(frozen=True)
class HostileRegime:
    """One named pathological regime: generator + machine conditions +
    mutation space."""

    name: str
    workload: str
    description: str
    #: Timestamp-config fields pinned for every run of this regime.
    ts_overrides: Tuple[Tuple[str, Any], ...] = ()
    #: Timestamp-config fields the fuzzer additionally mutates, with
    #: inclusive integer ranges.
    ts_ranges: Tuple[Tuple[str, Tuple[int, int]], ...] = ()
    #: Workload knobs to mutate (empty = all of the generator's knobs).
    mutate_knobs: Tuple[str, ...] = ()
    #: Knob values forced for every run (overriding generator defaults).
    knob_overrides: Tuple[Tuple[str, Any], ...] = ()

    @property
    def workload_cls(self) -> Type[HostileWorkload]:
        return HOSTILE_WORKLOADS[self.workload]

    def sample_cell_inputs(self, rng: random.Random
                           ) -> Tuple[str, Dict[str, Any]]:
        """One mutation draw: (workload spec, ts override dict)."""
        knobs = dict(self.knob_overrides)
        knobs.update(self.workload_cls.sample_knobs(rng, self.mutate_knobs))
        spec = self.workload_cls(**knobs).spec
        ts = dict(self.ts_overrides)
        for name, (lo, hi) in self.ts_ranges:
            ts[name] = rng.randint(lo, hi)
        return spec, ts

    def default_cell_inputs(self) -> Tuple[str, Dict[str, Any]]:
        """The regime's unmutated center point."""
        spec = self.workload_cls(**dict(self.knob_overrides)).spec
        return spec, dict(self.ts_overrides)


#: Narrow-clock conditions for the storm: an 11-bit timestamp rolls over
#: every ~2k logical ticks, and with fixed 64-tick leases each
#: (load, store) pair jumps ~a lease, so a few dozen pairs per warp force
#: a rollover. The predictor is pinned off so lease length — hence storm
#: violence — is a controlled variable the fuzzer sweeps via ``bits``.
_STORM_TS = (("bits", 11), ("lease_min", 8), ("lease_default", 64),
             ("lease_max", 64), ("predictor_enabled", False))

REGIMES: Dict[str, HostileRegime] = {
    "storm": HostileRegime(
        name="storm", workload="storm",
        description="timestamp-rollover storm: tiny width + write-heavy",
        ts_overrides=_STORM_TS,
        ts_ranges=(("bits", (10, 13)),),
    ),
    "pingpong": HostileRegime(
        name="pingpong", workload="pingpong",
        description="false-sharing ping-pong on a handful of blocks",
    ),
    "rwext": HostileRegime(
        name="rwext", workload="rwext",
        description="reader/writer ratio extremes",
    ),
    "bursty": HostileRegime(
        name="bursty", workload="bursty",
        description="bursty phase-changing traffic",
    ),
    "thrash": HostileRegime(
        name="thrash", workload="thrash",
        description="million-block working sets that thrash the L2",
    ),
}


def get_regime(name: str) -> HostileRegime:
    try:
        return REGIMES[name.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown hostile regime {name!r}; "
            f"choose from {sorted(REGIMES)}") from None


def select_regimes(names: str) -> List[HostileRegime]:
    """Parse a CLI-style regime list (``'all'`` or comma-separated)."""
    if names.strip().lower() in ("", "all"):
        return [REGIMES[n] for n in sorted(REGIMES)]
    return [get_regime(n) for n in names.split(",") if n.strip()]


__all__ = [
    "HOSTILE_WORKLOADS", "HostileRegime", "REGIMES", "get_regime",
    "select_regimes",
]
