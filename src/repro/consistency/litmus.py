"""Litmus tests: tiny multi-core programs with enumerable SC outcomes.

Each litmus test builds warp traces by hand (one warp per core), runs them
through the full simulator, and checks that the observed read values form an
outcome allowed by sequential consistency. These are the classical patterns:

* **MP** (message passing): the paper's §II example — seeing the flag but
  stale data is forbidden under SC;
* **SB** (store buffering / Dekker): both cores reading 0 is forbidden;
* **LB** (load buffering): both loads seeing the other's later store is
  forbidden;
* **IRIW** (independent reads of independent writes): the two reader cores
  must agree on the order of the two writes — this requires write atomicity,
  the property TC-weak gives up;
* **CoRR** (coherence read-read): two reads of one location must not see
  writes out of coherence order.

Under SC protocols (RCC, TCS, MESI, SC-IDEAL) the forbidden outcomes must
never appear — with or without fences. Under WO protocols, properly fenced
versions must also forbid them, except where the protocol fundamentally
cannot (TCW loses write atomicity, so IRIW can fail even fully fenced —
exactly why the paper says TCW cannot implement SC).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.config import GPUConfig
from repro.consistency.checker import is_init_value as _is_init
from repro.gpu.trace import WarpTrace, compute_op, fence_op, load_op, store_op
from repro.sim.gpusim import run_simulation

DATA = 0x1000
FLAG = 0x2000
X = 0x3000
Y = 0x4000


def _empty_traces(cfg: GPUConfig) -> List[List[WarpTrace]]:
    return [[WarpTrace(c, w) for w in range(cfg.warps_per_core)]
            for c in range(cfg.n_cores)]


class LitmusResult:
    """Observed values of one litmus run.

    Reads and writes are indexed *per core, in program order of that kind*:
    ``read(core, n)`` is the n-th load the core executed, regardless of any
    fences interleaved into the trace.
    """

    def __init__(self, name: str):
        self.name = name
        self._reads: Dict[int, List] = defaultdict(list)
        self._writes: Dict[int, List] = defaultdict(list)

    def add(self, rec) -> None:
        if rec.kind.name == "LOAD":
            self._reads[rec.core_id].append((rec.prog_index, rec.read_value))
        elif rec.kind.is_write:
            self._writes[rec.core_id].append((rec.prog_index, rec.value))

    def finalize(self) -> None:
        for d in (self._reads, self._writes):
            for core in d:
                d[core].sort()

    def read(self, core: int, n: int):
        return self._reads[core][n][1]

    def wrote(self, core: int, n: int):
        return self._writes[core][n][1]


def run_litmus(name: str, cfg: GPUConfig, protocol: str,
               program: Dict[int, List], use_fences: bool = False,
               stagger: int = 0) -> LitmusResult:
    """Run a hand-built litmus ``program`` (core -> op list).

    ``use_fences`` inserts a FENCE after every memory op (the fully fenced
    variant a WO programmer would write); ``stagger`` delays each core by a
    different amount to vary the physical interleaving.
    """
    traces = _empty_traces(cfg)
    for core, ops in program.items():
        t = traces[core][0]
        if stagger and core > 0:
            t.append(compute_op(stagger * core))
        for op in ops:
            t.append(op)
            if use_fences:
                t.append(fence_op())
    sim_result = run_simulation(cfg, protocol, traces, f"litmus-{name}",
                                record_ops=True)
    res = LitmusResult(name)
    for rec in sim_result.op_logs:
        res.add(rec)
    res.finalize()
    return res


# ----------------------------------------------------------------------
# The classical programs (one warp per core; extra cores stay idle)
# ----------------------------------------------------------------------

def mp_program() -> Dict[int, List]:
    """Message passing: C0 writes data then flag; C1 reads flag then data."""
    return {
        0: [store_op(DATA), store_op(FLAG)],
        1: [load_op(FLAG), load_op(DATA)],
    }


def mp_forbidden(res: LitmusResult) -> bool:
    """True if C1 saw the flag set but stale data (SC-forbidden)."""
    saw_flag = not _is_init(res.read(1, 0))
    saw_data = not _is_init(res.read(1, 1))
    return saw_flag and not saw_data


def sb_program() -> Dict[int, List]:
    """Store buffering: both cores store then load the other's location."""
    return {
        0: [store_op(X), load_op(Y)],
        1: [store_op(Y), load_op(X)],
    }


def sb_forbidden(res: LitmusResult) -> bool:
    """True if both loads read the initial value (SC-forbidden)."""
    return _is_init(res.read(0, 0)) and _is_init(res.read(1, 0))


def lb_program() -> Dict[int, List]:
    """Load buffering: both cores load then store the other's location."""
    return {
        0: [load_op(X), store_op(Y)],
        1: [load_op(Y), store_op(X)],
    }


def lb_forbidden(res: LitmusResult) -> bool:
    """True if both loads observed the other core's (later) store."""
    return (not _is_init(res.read(0, 0))) and (not _is_init(res.read(1, 0)))


def iriw_program() -> Dict[int, List]:
    """IRIW: C0 writes X, C1 writes Y; C2 reads X,Y; C3 reads Y,X."""
    return {
        0: [store_op(X)],
        1: [store_op(Y)],
        2: [load_op(X), load_op(Y)],
        3: [load_op(Y), load_op(X)],
    }


def iriw_forbidden(res: LitmusResult) -> bool:
    """True if the two reader cores disagree on the write order — forbidden
    whenever writes are atomic."""
    c2_x, c2_y = res.read(2, 0), res.read(2, 1)
    c3_y, c3_x = res.read(3, 0), res.read(3, 1)
    return (not _is_init(c2_x) and _is_init(c2_y)
            and not _is_init(c3_y) and _is_init(c3_x))


def corr_program() -> Dict[int, List]:
    """CoRR: C0 writes X twice; C1 reads X twice."""
    return {
        0: [store_op(X), store_op(X)],
        1: [load_op(X), load_op(X)],
    }


def corr_forbidden(res: LitmusResult) -> bool:
    """True if C1's two reads of X went backwards in coherence order."""
    rank = {res.wrote(0, 0): 1, res.wrote(0, 1): 2}

    def r(v):
        return 0 if _is_init(v) else rank.get(v, -1)

    return r(res.read(1, 1)) < r(res.read(1, 0))
