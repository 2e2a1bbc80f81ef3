"""Lease boundaries shared by RCC and TC (paper §III-E).

Intuition: read-only (and streaming) data should get long leases so copies
never expire; frequently-written shared data (locks, work queues) should get
short leases so a write does not have to advance logical time far past
everyone's ``now`` (which would expire unrelated L1 blocks).

The paper's predictor (max lease on fill, min on a write, double on every
successful renew, stored with the L2 line) is the ``fixed`` policy of
:mod:`repro.core.lease_policy`.
"""

from __future__ import annotations


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

