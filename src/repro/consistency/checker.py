"""Sequential-consistency witness checking.

Every completed memory operation carries a *witness key*: a timestamp
(``logical_ts`` — logical time for RCC, physical completion time for
MESI/TC) and a physical tie-break (``order_key`` — the L2 bank's arrival
counter, or -1 for L1 hits that never visited the bank). Because all
operations on one address are serviced by one bank, keys of same-address
operations are totally comparable.

An execution is sequentially consistent if some total order exists that
(a) respects each warp's program order and (b) makes every load return the
value of the most recent earlier store. Given the witness keys, we verify
the standard sufficient per-axiom decomposition:

1. **program order**: each warp's completed global memory ops have
   non-decreasing timestamps (completions are in program order under the
   SC issue policy, so this checks the protocol's clock management);
2. **coherence**: stores to one address are totally ordered by
   ``(ts, arrival)`` — last writer's value is the architectural value;
3. **reads-from**: every load (and every atomic's read half) returns the
   value of the latest same-address store at or before the load's witness
   position — never a value from the future, never a skipped store;
4. **atomicity**: an atomic's read half observes exactly its coherence-order
   predecessor (or the initial value when the atomic is the first write in
   coherence order).

Every axiom checker *returns* a structured list of :class:`Violation`
objects — no axiom path raises. The only raising entry point is
:meth:`SCChecker.check_or_raise`, which wraps the collected violations in a
:class:`~repro.errors.ConsistencyViolation` (and attaches them as its
``violations`` attribute). The checker is meaningful for the SC protocols
(RCC, TCS, MESI, SC-IDEAL); weakly-ordered runs (TCW, RCC-WO) legitimately
fail axiom 1 and parts of 3.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.common.types import MemOpKind
from repro.errors import ConsistencyViolation
from repro.gpu.warp import MemOpRecord

INIT = "init"

#: Axiom names, as reported in :attr:`Violation.axiom`.
AXIOM_PROGRAM_ORDER = "program-order"
AXIOM_COHERENCE = "coherence"
AXIOM_READS_FROM = "reads-from"
AXIOM_ATOMICITY = "atomicity"

AXIOMS = (AXIOM_PROGRAM_ORDER, AXIOM_COHERENCE, AXIOM_READS_FROM,
          AXIOM_ATOMICITY)


def is_init_value(v: Any) -> bool:
    """True for the ("init", addr) token blocks start with."""
    return isinstance(v, tuple) and len(v) == 2 and v[0] == INIT


@dataclass
class Violation:
    """One detected consistency violation."""

    axiom: str
    detail: str
    op: Optional[MemOpRecord] = field(default=None, repr=False)

    def __repr__(self) -> str:
        return f"<Violation {self.axiom}: {self.detail}>"

    def as_dict(self) -> Dict[str, Any]:
        """Flat summary for reports / JSON dumps."""
        d: Dict[str, Any] = {"axiom": self.axiom, "detail": self.detail}
        if self.op is not None:
            d.update(core=self.op.core_id, warp=self.op.warp_id,
                     prog_index=self.op.prog_index, kind=self.op.kind.value)
        return d


class SCChecker:
    """Checks an execution log (list of :class:`MemOpRecord`) for SC."""

    def __init__(self, block_bytes: int = 128):
        self.block_bytes = block_bytes

    def _block(self, addr: int) -> int:
        return (addr // self.block_bytes) * self.block_bytes

    # ------------------------------------------------------------------
    def check(self, ops: Iterable[MemOpRecord]) -> List[Violation]:
        """Run all axioms; returns the concatenated violation list."""
        ops = [op for op in ops if op.kind.is_global_mem]
        violations: List[Violation] = []
        violations.extend(self.check_program_order(ops))
        store_order, coh_violations = self.coherence_order(ops)
        violations.extend(coh_violations)
        violations.extend(self.check_reads_from(ops, store_order))
        return violations

    def check_or_raise(self, ops: Iterable[MemOpRecord]) -> None:
        violations = self.check(ops)
        if violations:
            head = "; ".join(repr(v) for v in violations[:5])
            exc = ConsistencyViolation(
                f"{len(violations)} violation(s), first: {head}")
            exc.violations = violations
            raise exc

    # ------------------------------------------------------------------
    # Axiom 1: per-warp program order embeds into the witness order
    # ------------------------------------------------------------------
    def check_program_order(self,
                            ops: List[MemOpRecord]) -> List[Violation]:
        out: List[Violation] = []
        per_warp: Dict[Tuple[int, int], List[MemOpRecord]] = defaultdict(list)
        for op in ops:
            per_warp[(op.core_id, op.warp_id)].append(op)
        for key, warp_ops in per_warp.items():
            warp_ops.sort(key=lambda o: o.prog_index)
            last_ts = -1
            for op in warp_ops:
                if op.logical_ts < last_ts:
                    out.append(Violation(
                        AXIOM_PROGRAM_ORDER,
                        f"warp {key}: op #{op.prog_index} ts={op.logical_ts}"
                        f" < previous ts={last_ts}", op))
                last_ts = max(last_ts, op.logical_ts)
        return out

    # ------------------------------------------------------------------
    # Axiom 2: per-address store serialization
    # ------------------------------------------------------------------
    def coherence_order(
        self, ops: List[MemOpRecord],
    ) -> Tuple[Dict[int, List[MemOpRecord]], List[Violation]]:
        """Build the per-block store order; returns (order, violations).

        The order — block base address to stores sorted by witness key —
        is also the architectural memory state: the last entry of each
        list is the block's final value.
        """
        violations: List[Violation] = []
        stores: Dict[int, List[MemOpRecord]] = defaultdict(list)
        for op in ops:
            if not op.kind.is_write:
                continue
            if op.value is None:
                # The data token is assigned at issue, so a completed
                # write without one never serialized a value at all.
                violations.append(Violation(
                    AXIOM_COHERENCE,
                    f"write {op!r} completed with no value token", op))
                continue
            stores[self._block(op.addr)].append(op)
        for block, ss in stores.items():
            ss.sort(key=lambda s: (s.logical_ts, s.order_key, s.seq))
            seen_arrivals = set()
            for s in ss:
                if s.order_key < 0:
                    violations.append(Violation(
                        AXIOM_COHERENCE,
                        f"store {s!r} has no L2 arrival key", s))
                elif s.order_key in seen_arrivals:
                    violations.append(Violation(
                        AXIOM_COHERENCE,
                        f"duplicate arrival key {s.order_key} at block "
                        f"0x{block:x}", s))
                seen_arrivals.add(s.order_key)
        return dict(stores), violations

    # ------------------------------------------------------------------
    # Axioms 3+4: reads-from and atomic adjacency
    # ------------------------------------------------------------------
    def check_reads_from(
        self, ops: List[MemOpRecord],
        store_order: Optional[Dict[int, List[MemOpRecord]]] = None,
    ) -> List[Violation]:
        if store_order is None:
            store_order, _ = self.coherence_order(ops)
        out: List[Violation] = []
        value_index: Dict[int, Dict[Any, int]] = {}
        for block, ss in store_order.items():
            value_index[block] = {s.value: i for i, s in enumerate(ss)}

        for op in ops:
            if op.kind is MemOpKind.STORE:
                continue
            block = self._block(op.addr)
            ss = store_order.get(block, [])
            idx = value_index.get(block, {})
            v = op.read_value
            if v is None:
                out.append(Violation(
                    AXIOM_READS_FROM, f"{op!r} read nothing", op))
                continue
            if is_init_value(v):
                src_i = -1  # read the initial value
            elif v in idx:
                src_i = idx[v]
            else:
                out.append(Violation(
                    AXIOM_READS_FROM, f"{op!r} read unknown value {v!r}", op))
                continue

            # (a) never read from the logical future.
            if src_i >= 0:
                src = ss[src_i]
                if src.logical_ts > op.logical_ts:
                    out.append(Violation(
                        AXIOM_READS_FROM,
                        f"{op!r} (ts={op.logical_ts}) read store "
                        f"{src!r} from the future (ts={src.logical_ts})", op))
            # (b) never skip a store that is witness-before the read.
            nxt_i = src_i + 1
            if nxt_i < len(ss):
                nxt = ss[nxt_i]
                stale = False
                if nxt.logical_ts < op.logical_ts:
                    stale = True
                elif (nxt.logical_ts == op.logical_ts and op.order_key >= 0
                      and nxt.order_key < op.order_key):
                    stale = True
                if stale:
                    out.append(Violation(
                        AXIOM_READS_FROM,
                        f"{op!r} (ts={op.logical_ts},ak={op.order_key}) "
                        f"skipped later store {nxt!r} "
                        f"(ts={nxt.logical_ts},ak={nxt.order_key})", op))
            # (c) atomics read exactly their coherence predecessor. The
            # read half of the first atomic in coherence order (co-index
            # 0) must therefore observe the initial value (src_i == -1).
            if op.kind is MemOpKind.ATOMIC:
                my_i = idx.get(op.value)
                if my_i is None:
                    out.append(Violation(
                        AXIOM_ATOMICITY,
                        f"{op!r} not in coherence order", op))
                elif my_i - 1 != src_i:
                    out.append(Violation(
                        AXIOM_ATOMICITY,
                        f"{op!r} at co-index {my_i} read co-index {src_i}, "
                        f"not its predecessor", op))
        return out
