"""Set-associative tag array with LRU replacement.

The array is protocol-agnostic: each :class:`CacheLine` carries generic
coherence fields (``state``, ``exp``, ``ver``, ``sharers``, ``dirty``,
``value``) that each protocol uses as it sees fit. Victim selection never
evicts lines a protocol has pinned (transient states with outstanding
requests).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.config import CacheConfig
from repro.errors import SimulationError

_lru_ticks = itertools.count()


class CacheLine:
    """One cache block's tag-array entry."""

    __slots__ = ("addr", "state", "exp", "ver", "dirty", "value", "sharers",
                 "pinned", "_lru", "meta")

    def __init__(self, addr: int, state: Any):
        self.addr = addr                # block-aligned base address
        self.state = state              # protocol-specific state enum
        self.exp: int = 0               # lease expiration (RCC/TC)
        self.ver: int = 0               # write version (RCC L2)
        self.dirty: bool = False        # write-back L2 only
        self.value: Any = None          # opaque data token (for SC checking)
        self.sharers: set = set()       # MESI directory sharer list
        self.pinned: bool = False       # ineligible for eviction (transient)
        self.meta: Dict[str, Any] = {}  # protocol-private extras
        self._lru = next(_lru_ticks)

    def touch(self) -> None:
        self._lru = next(_lru_ticks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Line 0x{self.addr:x} {self.state} ver={self.ver} "
                f"exp={self.exp}{' dirty' if self.dirty else ''}>")


class CacheArray:
    """LRU set-associative array keyed by block-aligned addresses.

    ``invalid_state`` is the protocol's I state; lines in that state are
    preferred victims and `lookup` treats them as absent unless asked.
    """

    def __init__(self, cfg: CacheConfig, invalid_state: Any):
        cfg.validate()
        self.cfg = cfg
        self.invalid_state = invalid_state
        self.n_sets = cfg.n_sets
        self.assoc = cfg.assoc
        self._block_shift = cfg.block_bytes.bit_length() - 1
        self._sets: List[Dict[int, CacheLine]] = [dict() for _ in range(self.n_sets)]
        #: Flat base-address -> line mirror of ``_sets``. Lookups by block
        #: address are the single hottest operation in the simulator; one
        #: dict probe here replaces the shift/modulo/set-indexing dance (and
        #: hot protocol paths read ``_map`` directly, skipping the call).
        self._map: Dict[int, CacheLine] = {}
        #: Bumped whenever the set of resident lines changes.
        self.version = 0

    # ------------------------------------------------------------------
    def set_index(self, addr: int) -> int:
        return (addr >> self._block_shift) % self.n_sets

    def block_of(self, addr: int) -> int:
        return (addr >> self._block_shift) << self._block_shift

    # ------------------------------------------------------------------
    # The address arithmetic is inlined (rather than routed through
    # ``block_of``/``set_index``) in the methods below: lookups run a few
    # hundred thousand times per simulation and the extra call frames were
    # measurable.
    def lookup(self, addr: int) -> Optional[CacheLine]:
        """Return the line holding ``addr`` (any state), or None."""
        blk = addr >> self._block_shift
        return self._map.get(blk << self._block_shift)

    def insert(
        self,
        addr: int,
        state: Any,
        evict_cb: Optional[Callable[[CacheLine], None]] = None,
    ) -> CacheLine:
        """Insert (or reset) a line for ``addr``; evicting an LRU victim if
        the set is full. ``evict_cb`` is called with the victim *before*
        removal so protocols can issue writebacks / update ``mnow``.

        Raises :class:`SimulationError` if every line in the set is pinned —
        callers must check :meth:`can_allocate` first and stall instead.
        """
        blk = addr >> self._block_shift
        base = blk << self._block_shift
        s = self._sets[blk % self.n_sets]
        line = s.get(base)
        if line is not None:
            line.state = state
            line.touch()
            return line
        if len(s) >= self.assoc:
            victim = self._pick_victim(s)
            if victim is None:
                raise SimulationError(
                    f"no evictable line in set {self.set_index(addr)} "
                    f"(all {self.assoc} ways pinned)"
                )
            if evict_cb is not None:
                evict_cb(victim)
            del s[victim.addr]
            del self._map[victim.addr]
        line = CacheLine(base, state)
        s[base] = line
        self._map[base] = line
        self.version += 1
        return line

    def can_allocate(self, addr: int) -> bool:
        """True if a line for ``addr`` exists or a victim is available."""
        blk = addr >> self._block_shift
        s = self._sets[blk % self.n_sets]
        if blk << self._block_shift in s or len(s) < self.assoc:
            return True
        return self._pick_victim(s) is not None

    def remove(self, addr: int) -> Optional[CacheLine]:
        blk = addr >> self._block_shift
        base = blk << self._block_shift
        self._map.pop(base, None)
        self.version += 1
        return self._sets[blk % self.n_sets].pop(base, None)

    def _pick_victim(self, s: Dict[int, CacheLine]) -> Optional[CacheLine]:
        # Prefer invalid lines, then LRU. Single pass; ties keep the first
        # candidate in set-dict order, exactly like the historical
        # ``min(invalid or candidates, key=lru)`` over filtered lists.
        inv_state = self.invalid_state
        best = best_inv = None
        best_lru = best_inv_lru = 0
        for ln in s.values():
            if ln.pinned:
                continue
            lru = ln._lru
            if ln.state is inv_state:
                if best_inv is None or lru < best_inv_lru:
                    best_inv = ln
                    best_inv_lru = lru
            elif best is None or lru < best_lru:
                best = ln
                best_lru = lru
        return best_inv if best_inv is not None else best

    def set_lines(self, addr: int) -> List[CacheLine]:
        """All lines in the set that ``addr`` maps to."""
        return list(self._sets[self.set_index(addr)].values())

    # ------------------------------------------------------------------
    def lines(self) -> Iterator[CacheLine]:
        for s in self._sets:
            yield from s.values()

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def clear(self) -> None:
        """Drop every line (rollover flash-clear)."""
        for s in self._sets:
            s.clear()
        self._map.clear()
        self.version += 1
