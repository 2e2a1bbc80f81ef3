"""Pluggable lease policies for RCC's logical-timestamp leases.

The L2 bank decides, at every read grant, how far past ``max(ver, M.now)``
the block's lease should reach. The original paper fixes that decision in
one predictor (§III-E: max on fill, min on write, double on renew); Tardis
2.0 shows lease *prediction* and renewal tuning materially change
timestamp-coherence behaviour. This module makes the decision a strategy
object so policies × protocols × workloads sweep through the executor,
fuzzer, and sanitizer unchanged.

A policy consumes an **observation stream** — the per-block events the L2
already sees — and answers one question:

======================  ==================================================
hook                    observation / decision
======================  ==================================================
``lease_for``           a read of ``line`` by a requester at logical
                        ``now`` from instruction slot ``pc``: return the
                        lease length to grant (clamped to
                        ``[lease_min, lease_max]``)
``on_write``            the block was written (version jumped past every
                        lease)
``on_renew``            an expired copy turned out to be still current and
                        was extended data-lessly (the profitable case)
``on_expired_miss``     an expired copy had been *written* since its lease
                        was granted, so the lease outlived the data (the
                        mispredicted case; renewal was impossible)
======================  ==================================================

Policies must be **deterministic** functions of that stream (no wall
clock, no RNG): the sweep cache keys results by configuration only, and
the differential battery replays identical streams expecting identical
decisions. Any decision must stay within ``[lease_min, lease_max]`` —
``lease_max`` feeds the rollover guard band (§III-D) and the sanitizer's
policy-ceiling invariant, so exceeding it is a correctness bug, not a
tuning choice.

Shipped policies:

* ``fixed`` — the default, byte-identical to the historical
  ``LeasePredictor`` (including its ``predictor_enabled`` toggle),
  pinned by the golden-payload battery;
* ``adaptive`` — per-block lease sized from the observed logical re-read
  distance, tracked as a decaying integer average in the L2 line's meta
  (lost on eviction, exactly like the paper's per-line prediction);
* ``pc-pred`` — a PC-indexed renew predictor generalizing the paper's
  Fig. 7 predictor: the prediction lives with the requesting *instruction*
  rather than the block, doubling on successful renews and halving when a
  granted lease outlives the data.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.config import TimestampConfig
from repro.errors import ConfigError
from repro.mem.cache_array import CacheLine

#: Meta key of the fixed policy's per-line prediction (the historical
#: ``LeasePredictor`` key, kept verbatim for byte-identical behaviour).
_PRED_KEY = "lease_pred"

#: Meta keys of the adaptive policy's per-line observation state.
_ADAPT_LAST = "lease_adapt_last"    # logical time of the last read grant
_ADAPT_DIST = "lease_adapt_dist"    # decayed average re-read distance


class LeasePolicy:
    """Base strategy: decides the lease granted with each L2 read.

    Subclasses override the hooks; the base provides clamping and the
    shared config. Policy state may live per-policy-instance (one per L2
    bank, e.g. a PC table) or per-line (``line.meta``, lost on eviction).
    """

    name = "base"

    def __init__(self, cfg: TimestampConfig):
        self.cfg = cfg

    # -- decision ------------------------------------------------------
    def lease_for(self, line: CacheLine, now: int = 0,
                  pc: int = None) -> int:
        """Lease to grant for a read of ``line`` by a requester whose
        logical clock reads ``now``, issued from instruction slot ``pc``
        (``None`` when the requester is anonymous, e.g. a DRAM fill)."""
        raise NotImplementedError

    # -- observations --------------------------------------------------
    def on_write(self, line: CacheLine) -> None:
        """The block was written."""

    def on_renew(self, line: CacheLine, pc: int = None) -> None:
        """An expired copy was successfully renewed (still current)."""

    def on_expired_miss(self, line: CacheLine, pc: int = None) -> None:
        """An expired copy could not be renewed: the block was written
        inside the granted lease window, so the lease was too long."""

    # -- inspection ----------------------------------------------------
    def prediction(self, line: CacheLine) -> int:
        """Current per-line prediction (tests/inspection)."""
        return self.cfg.lease_default

    # -- helpers -------------------------------------------------------
    def clamp(self, lease: int) -> int:
        """Force a decision into the configured ``[min, max]`` band."""
        if lease < self.cfg.lease_min:
            return self.cfg.lease_min
        if lease > self.cfg.lease_max:
            return self.cfg.lease_max
        return lease


class FixedLeasePolicy(LeasePolicy):
    """Today's behaviour, verbatim (paper §III-E).

    With ``predictor_enabled``: start every block at ``lease_max``, drop
    to ``lease_min`` on a write, double on every successful renew, store
    the prediction with the L2 line. With the predictor off: always
    ``lease_default``. This class must stay byte-identical to the
    historical ``LeasePredictor`` — the golden-payload regression battery
    (``tests/test_lease_golden.py``) pins it against pre-refactor payload
    hashes.
    """

    name = "fixed"

    def __init__(self, cfg: TimestampConfig):
        super().__init__(cfg)
        self.enabled = cfg.predictor_enabled

    def lease_for(self, line: CacheLine, now: int = 0,
                  pc: int = None) -> int:
        if not self.enabled:
            return self.cfg.lease_default
        return line.meta.get(_PRED_KEY, self.cfg.lease_max)

    def on_write(self, line: CacheLine) -> None:
        if self.enabled:
            line.meta[_PRED_KEY] = self.cfg.lease_min

    def on_renew(self, line: CacheLine, pc: int = None) -> None:
        if not self.enabled:
            return
        current = line.meta.get(_PRED_KEY, self.cfg.lease_max)
        line.meta[_PRED_KEY] = min(current * 2, self.cfg.lease_max)

    def prediction(self, line: CacheLine) -> int:
        if not self.enabled:
            return self.cfg.lease_default
        return line.meta.get(_PRED_KEY, self.cfg.lease_max)


class AdaptiveLeasePolicy(LeasePolicy):
    """Per-block lease sized from the observed logical re-read distance.

    Each read grant records the requester's logical position
    ``max(now, ver)``; the gap to the previous grant is folded into a
    decaying integer average (3/4 old + 1/4 new — pure integer
    arithmetic, so decisions are bit-stable across hosts). The granted
    lease is twice the average distance: long enough that a steady reader
    renews rarely, short enough that a block whose readers left does not
    pin logical time. Writes halve the average (shared-mutable data wants
    short leases); state lives in ``line.meta`` and is lost on L2
    eviction, restarting streaming blocks at ``lease_default`` exactly
    like the paper's per-line prediction.
    """

    name = "adaptive"

    def lease_for(self, line: CacheLine, now: int = 0,
                  pc: int = None) -> int:
        meta = line.meta
        point = now if now > line.ver else line.ver
        last = meta.get(_ADAPT_LAST)
        if last is not None:
            dist = point - last
            if dist < 0:
                dist = 0
            avg = meta.get(_ADAPT_DIST)
            meta[_ADAPT_DIST] = (dist if avg is None
                                 else (3 * avg + dist) // 4)
        meta[_ADAPT_LAST] = point
        return self.clamp(self.prediction(line))

    def on_write(self, line: CacheLine) -> None:
        avg = line.meta.get(_ADAPT_DIST)
        if avg is not None:
            line.meta[_ADAPT_DIST] = avg // 2

    def on_expired_miss(self, line: CacheLine, pc: int = None) -> None:
        # The lease outlived the data: shrink toward the minimum faster
        # than the write-halving alone would.
        avg = line.meta.get(_ADAPT_DIST)
        if avg is not None:
            line.meta[_ADAPT_DIST] = avg // 2

    def prediction(self, line: CacheLine) -> int:
        avg = line.meta.get(_ADAPT_DIST)
        if avg is None:
            return self.clamp(self.cfg.lease_default)
        return self.clamp(2 * avg)


class PCPredLeasePolicy(LeasePolicy):
    """PC-indexed renew predictor (the paper's Fig. 7 idea, generalized).

    The paper predicts per *block*; this policy predicts per requesting
    *instruction slot*: the same load in a kernel tends to exhibit the
    same re-use behaviour across every block it touches, so the table
    warms up once per instruction instead of once per block and survives
    L2 evictions. Each PC starts at ``lease_max`` (optimistic, like the
    paper's fill rule), doubles on a successful renew observed for that
    PC, and halves when a lease granted to that PC outlives the data (an
    expired copy that could not be renewed). Requests with no PC (DRAM
    fills merging anonymous readers) fall back to ``lease_default``.

    The table lives per L2 bank — banks see disjoint block sets, and a
    per-bank table keeps the policy deterministic under any bank
    interleaving.
    """

    name = "pc-pred"

    def __init__(self, cfg: TimestampConfig):
        super().__init__(cfg)
        self.table: Dict[int, int] = {}

    def lease_for(self, line: CacheLine, now: int = 0,
                  pc: int = None) -> int:
        if pc is None:
            return self.clamp(self.cfg.lease_default)
        return self.clamp(self.table.get(pc, self.cfg.lease_max))

    def on_renew(self, line: CacheLine, pc: int = None) -> None:
        if pc is None:
            return
        current = self.table.get(pc, self.cfg.lease_max)
        self.table[pc] = min(current * 2, self.cfg.lease_max)

    def on_expired_miss(self, line: CacheLine, pc: int = None) -> None:
        if pc is None:
            return
        current = self.table.get(pc, self.cfg.lease_max)
        self.table[pc] = max(current // 2, self.cfg.lease_min)

    def prediction(self, line: CacheLine) -> int:
        # Per-line inspection has no PC; report the optimistic default.
        return self.clamp(self.cfg.lease_max)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

LEASE_POLICIES: Dict[str, Type[LeasePolicy]] = {
    FixedLeasePolicy.name: FixedLeasePolicy,
    AdaptiveLeasePolicy.name: AdaptiveLeasePolicy,
    PCPredLeasePolicy.name: PCPredLeasePolicy,
}


def available_lease_policies() -> List[str]:
    """All registered policy names, in a stable order."""
    return sorted(LEASE_POLICIES)


def register_lease_policy(cls: Type[LeasePolicy],
                          replace: bool = False) -> None:
    """Register a custom policy class under ``cls.name``.

    Used by tests to inject probe policies; every registered policy is
    automatically swept by the property battery and the cross-policy
    differential fuzz test.
    """
    if cls.name in LEASE_POLICIES and not replace:
        raise ConfigError(f"lease policy {cls.name!r} is already registered")
    LEASE_POLICIES[cls.name] = cls


def unregister_lease_policy(name: str) -> None:
    """Remove a policy added by :func:`register_lease_policy`."""
    if name in ("fixed", "adaptive", "pc-pred"):
        raise ConfigError(f"refusing to unregister built-in {name!r}")
    LEASE_POLICIES.pop(name, None)


def make_lease_policy(cfg: TimestampConfig) -> LeasePolicy:
    """Instantiate the policy ``cfg.lease_policy`` names."""
    cls = LEASE_POLICIES.get(cfg.lease_policy)
    if cls is None:
        raise ConfigError(
            f"unknown lease policy {cfg.lease_policy!r}; choose from "
            f"{available_lease_policies()}")
    return cls(cfg)
