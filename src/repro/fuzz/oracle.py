"""Reference SC oracle: is an observed execution explainable by *any*
sequentially consistent interleaving?

The witness checker (:mod:`repro.consistency.checker`) validates a run
against the protocol's own timestamps; this oracle is independent of them.
It takes only the *architectural observation* — the value every load (and
every atomic's read half) returned, plus the final memory state — and
searches the space of SC interleavings of the program for one that
reproduces the observation exactly. If none exists, the execution is not
SC, full stop — no protocol metadata can excuse it. Running both checkers
differentially means a protocol bug must fool two unrelated validators to
slip through.

Values are *normalized*: a store is identified by ``(core, warp,
prog_index)`` and the initial value by :data:`INIT`, so observations from
different protocols (whose raw data tokens differ) are comparable.

The search is a memoized DFS over interleaving states ``(per-warp pcs,
per-slot last writer)``. Load observations prune aggressively — a load can
only be scheduled when memory holds exactly the value it returned — so
correct observations are explained almost immediately; proving a violation
exhausts the (small) reachable state space. A state budget bounds
pathological cases: exceeding it raises :class:`OracleExhausted` rather
than mislabeling the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.common.types import MemOpKind
from repro.consistency.checker import is_init_value
from repro.errors import ReproError
from repro.fuzz.generator import FuzzProgram

#: Normalized "initial value" marker.
INIT = "init"

#: Normalized "value of unknown provenance" marker — never explainable.
UNKNOWN = "?"

#: State budget of one search (:func:`explain`'s default).
MAX_STATES = 500_000

WarpKey = Tuple[int, int]
#: A store's normalized identity.
StoreId = Tuple[int, int, int]


class OracleExhausted(ReproError):
    """The oracle hit its state budget before proving either way."""


@dataclass
class Observation:
    """Architectural outcome of one execution, normalized for comparison.

    ``reads`` lists, per warp in program order, the value every load and
    atomic read half returned; ``final`` maps address slots to the
    identity of their last writer (slots still holding their initial
    value may be absent or map to :data:`INIT`).
    """

    reads: Dict[WarpKey, List[Any]] = field(default_factory=dict)
    final: Dict[int, Any] = field(default_factory=dict)

    def final_of(self, slot: int) -> Any:
        return self.final.get(slot, INIT)


def observation_from_records(
        program: FuzzProgram, records: Iterable[Any],
        final_memory: Optional[Dict[int, Any]] = None,
        block_bytes: int = 128) -> Observation:
    """Normalize a simulator run (``MemOpRecord`` list + final memory)
    into an :class:`Observation` for ``program``.

    Store data tokens are mapped back to ``(core, warp, prog_index)``
    through the store records themselves; tokens that match no store
    become :data:`UNKNOWN` (and thus guaranteed oracle failures).
    """
    records = [r for r in records if r.kind.is_global_mem]
    ident: Dict[Any, StoreId] = {}
    for r in records:
        if r.kind.is_write and r.value is not None:
            ident[r.value] = (r.core_id, r.warp_id, r.prog_index)

    def norm(v: Any) -> Any:
        if is_init_value(v):
            return INIT
        return ident.get(v, UNKNOWN)

    per_warp: Dict[WarpKey, List[Tuple[int, Any]]] = {}
    for r in records:
        if r.kind in (MemOpKind.LOAD, MemOpKind.ATOMIC):
            per_warp.setdefault((r.core_id, r.warp_id), []).append(
                (r.prog_index, norm(r.read_value)))
    reads = {k: [v for _, v in sorted(vals)] for k, vals in per_warp.items()}

    final: Dict[int, Any] = {}
    if final_memory is not None:
        slot_of = {program.addr_of_slot(s, block_bytes): s
                   for s in range(program.n_addrs)}
        for block, token in final_memory.items():
            slot = slot_of.get(block)
            if slot is not None:
                final[slot] = norm(token)
    return Observation(reads=reads, final=final)


# ----------------------------------------------------------------------
# The interleaving search
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _SemOp:
    """One op with SC semantics (fences/compute are skipped up front)."""

    kind: MemOpKind
    slot: int
    ident: StoreId          # identity if this op writes
    read_cursor: int        # index into the warp's observed reads, or -1


def _semantic_ops(program: FuzzProgram) -> Dict[WarpKey, List[_SemOp]]:
    out: Dict[WarpKey, List[_SemOp]] = {}
    for key in sorted(program.warps):
        sem: List[_SemOp] = []
        cursor = 0
        for i, op in enumerate(program.warps[key]):
            if not op.is_mem:
                continue
            rc = -1
            if op.kind in (MemOpKind.LOAD, MemOpKind.ATOMIC):
                rc = cursor
                cursor += 1
            sem.append(_SemOp(op.kind, op.slot, (key[0], key[1], i), rc))
        out[key] = sem
    return out


def explain(program: FuzzProgram, obs: Observation,
            max_states: int = MAX_STATES
            ) -> Optional[List[Tuple[WarpKey, _SemOp]]]:
    """Search for an SC interleaving reproducing ``obs``.

    Returns the interleaving as a list of ``(warp key, op)`` steps, or
    ``None`` if the observation is not sequentially consistent. Raises
    :class:`OracleExhausted` past ``max_states`` explored states.
    """
    sem = _semantic_ops(program)
    keys = sorted(sem)
    ops = [sem[k] for k in keys]
    expected = [list(obs.reads.get(k, [])) for k in keys]

    # An observation with the wrong number of read values can never be
    # explained (an op was dropped or duplicated by the execution).
    for i, k in enumerate(keys):
        want = sum(1 for o in ops[i]
                   if o.kind in (MemOpKind.LOAD, MemOpKind.ATOMIC))
        if len(expected[i]) != want:
            return None

    n_slots = program.n_addrs
    goal = tuple(obs.final_of(s) for s in range(n_slots))
    init_mem = tuple([INIT] * n_slots)
    start = (tuple([0] * len(keys)), init_mem)
    dead: set = set()
    visited = 0

    def dfs(pcs: Tuple[int, ...], mem: Tuple[Any, ...],
            path: List[Tuple[WarpKey, _SemOp]]
            ) -> Optional[List[Tuple[WarpKey, _SemOp]]]:
        nonlocal visited
        if all(pc >= len(ops[i]) for i, pc in enumerate(pcs)):
            return list(path) if mem == goal else None
        state = (pcs, mem)
        if state in dead:
            return None
        visited += 1
        if visited > max_states:
            raise OracleExhausted(
                f"oracle exceeded {max_states} states on {program.name}")
        for i in range(len(keys)):
            pc = pcs[i]
            if pc >= len(ops[i]):
                continue
            op = ops[i][pc]
            if op.kind is MemOpKind.LOAD:
                if mem[op.slot] != expected[i][op.read_cursor]:
                    continue
                new_mem = mem
            elif op.kind is MemOpKind.STORE:
                new_mem = mem[:op.slot] + (op.ident,) + mem[op.slot + 1:]
            else:  # ATOMIC: read half must match, then write
                if mem[op.slot] != expected[i][op.read_cursor]:
                    continue
                new_mem = mem[:op.slot] + (op.ident,) + mem[op.slot + 1:]
            new_pcs = pcs[:i] + (pc + 1,) + pcs[i + 1:]
            path.append((keys[i], op))
            found = dfs(new_pcs, new_mem, path)
            if found is not None:
                return found
            path.pop()
        dead.add(state)
        return None

    return dfs(start[0], start[1], [])


def sc_explainable(program: FuzzProgram, obs: Observation) -> bool:
    """True iff some SC interleaving of ``program`` reproduces ``obs``."""
    return explain(program, obs) is not None
