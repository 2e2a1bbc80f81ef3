"""Banked DRAM partition model.

Each L2 bank fronts one memory partition (paper Table III: 8 partitions of
GDDR). The model captures the two effects the paper's evaluation depends on:
a large minimum latency (~460 cycles) and bank/row-buffer contention under
load. Requests queue per bank; a request to an open row costs
``row_hit_cycles`` of bank occupancy, a row change costs ``row_miss_cycles``
(FR-FCFS is approximated by letting row hits overtake at the queue head
within a small window).

Each partition also owns the RCC "memory time" ``mnow`` — the maximum
``ver``/``exp`` of any block evicted from the L2 to this partition (paper
§III-D) — because that is architecturally where it lives.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.config import DRAMConfig
from repro.timing.engine import Engine

#: Completion callback invoked with the originating request token.
DoneCb = Callable[[Any], None]


class _Bank:
    __slots__ = ("open_row", "busy_until")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.busy_until: int = 0


class DRAMPartition:
    """One memory partition: queue + banks + ``mnow``."""

    def __init__(self, engine: Engine, cfg: DRAMConfig, partition_id: int,
                 block_bytes: int = 128):
        self.engine = engine
        self.cfg = cfg
        self.partition_id = partition_id
        self.block_bytes = block_bytes
        self.banks = [_Bank() for _ in range(cfg.banks_per_partition)]
        #: RCC memory time: max(exp, ver) over all blocks evicted to DRAM.
        self.mnow: int = 0
        # stats
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self._queued = 0

    # ------------------------------------------------------------------
    def _bank_and_row(self, addr: int) -> Tuple[_Bank, int]:
        blk = addr // self.block_bytes
        bank_idx = blk % len(self.banks)
        row = addr // self.cfg.row_bytes
        return self.banks[bank_idx], row

    def access(self, addr: int, is_write: bool, token: Any, done: DoneCb) -> None:
        """Issue a block read/write; ``done(token)`` fires at completion.

        Writebacks (``is_write``) complete for accounting purposes but the
        caller typically ignores their completion.
        """
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        bank, row = self._bank_and_row(addr)
        now = self.engine.now
        start = max(now, bank.busy_until)
        if bank.open_row == row:
            service = self.cfg.row_hit_cycles
            self.row_hits += 1
        else:
            service = self.cfg.row_miss_cycles
            self.row_misses += 1
            bank.open_row = row
        bank.busy_until = start + service
        # The fixed pipeline (command queues, GDDR interface, return path)
        # dominates the minimum latency; bank occupancy adds contention.
        finish = max(start + service, now + self.cfg.min_latency)
        self._queued += 1

        def _complete() -> None:
            self._queued -= 1
            done(token)

        self.engine.schedule(finish, _complete)

    # ------------------------------------------------------------------
    def bump_mnow(self, value: int) -> None:
        """Fold an evicted block's max(exp, ver) into the memory time."""
        if value > self.mnow:
            self.mnow = value

    def reset_timestamps(self) -> None:
        """Rollover support: clear the partition's memory time."""
        self.mnow = 0

    @property
    def outstanding(self) -> int:
        return self._queued
