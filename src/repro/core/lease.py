"""Lease boundaries and the lease predictor shared by RCC (paper §III-E).

Intuition: read-only (and streaming) data should get long leases so copies
never expire; frequently-written shared data (locks, work queues) should get
short leases so a write does not have to advance logical time far past
everyone's ``now`` (which would expire unrelated L1 blocks).
"""

from __future__ import annotations

from repro.config import TimestampConfig
from repro.mem.cache_array import CacheLine

#: ``line.meta`` key of the per-block prediction (lost on L2 eviction).
_PRED_KEY = "lease_pred"


class LeasePredictor:
    """The paper's per-block lease predictor, stored with the L2 line:
    ``lease_max`` on fill, ``lease_min`` on a write, double (capped at
    ``lease_max``) on every successful renew. With ``predictor_enabled``
    off, every grant is ``lease_default``."""

    def __init__(self, cfg: TimestampConfig):
        self.cfg = cfg
        self.enabled = cfg.predictor_enabled

    def lease_for(self, line: CacheLine) -> int:
        """The lease to grant with a read of ``line``."""
        if not self.enabled:
            return self.cfg.lease_default
        return line.meta.get(_PRED_KEY, self.cfg.lease_max)

    def on_write(self, line: CacheLine) -> None:
        if self.enabled:
            line.meta[_PRED_KEY] = self.cfg.lease_min

    def on_renew(self, line: CacheLine) -> None:
        if self.enabled:
            line.meta[_PRED_KEY] = min(2 * self.lease_for(line),
                                       self.cfg.lease_max)


def lease_valid(now: int, exp: int) -> bool:
    """The single lease-boundary convention, shared by RCC and TC: a copy
    is readable **through** its expiry cycle (``now == exp`` still hits)."""
    return now <= exp


def lease_expired(now: int, exp: int) -> bool:
    """Complement of :func:`lease_valid`: expired strictly past ``exp``."""
    return now > exp


def post_lease(exp: int) -> int:
    """The first instant strictly after a lease — where writes serialize
    (RCC rule 3's ``D.exp + 1``; a TCS store's earliest ack time)."""
    return exp + 1
