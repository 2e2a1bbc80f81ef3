"""Address arithmetic: block alignment, set indexing, L2 bank hashing.

The GPU's shared L2 is split into banks (8 partitions in the paper's GTX 480
configuration); consecutive cache blocks are interleaved across banks, which
is also how the memory partitions are addressed.
"""

from __future__ import annotations

from repro.errors import ConfigError


class AddressMap:
    """Maps byte addresses to cache blocks, L2 banks, and memory partitions.

    >>> am = AddressMap(block_bytes=128, n_l2_banks=8)
    >>> am.block_of(0x100)
    256
    >>> am.bank_of(0x100)
    2
    """

    def __init__(self, block_bytes: int = 128, n_l2_banks: int = 8):
        if block_bytes <= 0 or block_bytes & (block_bytes - 1):
            raise ConfigError(f"block_bytes must be a power of two: {block_bytes}")
        if n_l2_banks <= 0:
            raise ConfigError(f"n_l2_banks must be positive: {n_l2_banks}")
        self.block_bytes = block_bytes
        self.n_l2_banks = n_l2_banks
        self._block_shift = block_bytes.bit_length() - 1

    def block_of(self, addr: int) -> int:
        """Block-aligned base address containing ``addr``."""
        return (addr >> self._block_shift) << self._block_shift

    def block_index(self, addr: int) -> int:
        """Sequential index of the block containing ``addr``."""
        return addr >> self._block_shift

    def bank_of(self, addr: int) -> int:
        """L2 bank (== memory partition) for ``addr``; block-interleaved."""
        return self.block_index(addr) % self.n_l2_banks
