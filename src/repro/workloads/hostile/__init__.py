"""Hostile-workload lab: parameterized pathological generators.

Five regimes target the cliffs a logical-lease coherence design hides off
the benchmark grid (ROADMAP "scenario diversity"; Tardis 2.0's lease
analysis names the extremes):

* ``storm`` — timestamp-rollover storms (tiny width + write-heavy);
* ``pingpong`` — false-sharing ping-pong;
* ``rwext`` — reader/writer ratio extremes;
* ``bursty`` — phase-changing traffic that poisons predictors;
* ``thrash`` — million-block working sets that thrash the L2.

``repro-fuzz --workloads`` mutates these generators' knobs through the
sweep executor under the sanitizer, hunting invariant violations and
simulator errors (:mod:`repro.fuzz.workloads`).
"""

from repro.workloads.hostile.base import (
    HostileWorkload, Knob, parse_spec,
)
from repro.workloads.hostile.bursty import BurstyPhases
from repro.workloads.hostile.pingpong import FalseSharingPingPong
from repro.workloads.hostile.regimes import (
    HOSTILE_WORKLOADS, HostileRegime, REGIMES, get_regime, select_regimes,
)
from repro.workloads.hostile.rwext import ReaderWriterExtremes
from repro.workloads.hostile.storm import RolloverStorm
from repro.workloads.hostile.thrash import L2Thrash

__all__ = [
    "BurstyPhases",
    "FalseSharingPingPong",
    "HOSTILE_WORKLOADS",
    "HostileRegime",
    "HostileWorkload",
    "Knob",
    "L2Thrash",
    "REGIMES",
    "ReaderWriterExtremes",
    "RolloverStorm",
    "get_regime",
    "parse_spec",
    "select_regimes",
]
