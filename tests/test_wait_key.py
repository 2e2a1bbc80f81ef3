"""Every input an L2 retry check reads moves its bank's ``wait_key()``.

A retry train re-checks a blocked request only when the key of the bank
its check returned has moved (``Engine.poll``), so a state change that
a check reads but the key misses would leave a request blocked that the
per-poll model had let through. Each case below changes exactly one
input of one protocol's key, through the controller code that changes
it in a run where there is one, and checks two things: the verdict of a
pending request's check changes (so the case exercises that input), and
the key changes with it.

In a whole run several inputs often move together (a miss inserts a
line and allocates an MSHR entry at once), so dropping one of them from
a key leaves every payload intact; these cases are what pins each one.
"""

import dataclasses

import pytest

from repro.common.messages import Message
from repro.common.types import L2State, MsgKind
from repro.config import GPUConfig
from repro.mem.cache_array import CacheLine
from repro.sim.gpusim import GPUSimulator
from tests.conftest import empty_traces

BLOCK = 128
X, A, B = 10 * BLOCK, 20 * BLOCK, 30 * BLOCK
CORE = ("core", 0)


def bank_of(protocol: str, **ts):
    """L2 bank 0 of an idle small machine with two L2 MSHRs per bank."""
    cfg = GPUConfig.small()
    cfg = cfg.replace(
        l2_per_bank=dataclasses.replace(cfg.l2_per_bank, mshr_entries=2),
        ts=dataclasses.replace(cfg.ts, **ts))
    assert cfg.l1.block_bytes == BLOCK
    sim = GPUSimulator(cfg, protocol, empty_traces(cfg))
    return sim.proto.l2s[0]


def request(kind=MsgKind.GETS, addr=X, now=0) -> Message:
    return Message(kind, addr, CORE, ("l2", 0), now=now)


def moved(bank, check, change):
    """Run ``change`` and report (verdict before, verdict after, whether
    the key moved)."""
    verdict, key = check(), bank.wait_key()
    change()
    return verdict, check(), bank.wait_key() != key


def assert_pinned(bank, check, change, before, after):
    was, now, key_moved = moved(bank, check, change)
    assert (was, now) == (before, after), "the case no longer flips"
    assert key_moved, "the verdict changed but the wait key did not"


# ----------------------------------------------------------------------
# RCC (RCC-SC and RCC-WO share the L2)
# ----------------------------------------------------------------------
def full_rcc_mshr(bank):
    bank.mshr.allocate(A)
    bank.mshr.allocate(B)


def test_rcc_mshr_entry_set():
    bank = bank_of("RCC")
    full_rcc_mshr(bank)
    check = bank._retry_check(request())
    assert_pinned(bank, check, lambda: bank.mshr.release_if_empty(A),
                  bank, None)


def test_rcc_line_presence():
    bank = bank_of("RCC")
    full_rcc_mshr(bank)
    check = bank._retry_check(request())
    assert_pinned(bank, check, lambda: bank.cache.insert(X, L2State.V),
                  bank, None)


def test_rcc_fill_of_the_blocking_line():
    # A GETS waits on an IAV line. The fill turns it V; the MSHR entry
    # is kept here (it still holds a request), so only the fill itself
    # can move the key.
    bank = bank_of("RCC")
    line = bank.cache.insert(X, L2State.IAV)
    line.pinned = True
    entry = bank.mshr.allocate(X)
    entry.meta["atomic_msg"] = request(MsgKind.ATOMIC)
    entry.pending_stores.append("held")
    check = bank._retry_check(request())
    assert_pinned(bank, check, lambda: bank._on_dram_data(X), bank, None)
    assert X in bank.mshr


def test_rcc_freeze():
    bank = bank_of("RCC")
    full_rcc_mshr(bank)
    check = bank._retry_check(request())
    assert_pinned(bank, check, bank.freeze, bank, None)


def test_rcc_rollover_in_progress():
    bank = bank_of("RCC")
    full_rcc_mshr(bank)
    check = bank._retry_check(request())

    def begin():
        bank.rollover.in_progress = True
    assert_pinned(bank, check, begin, bank, None)


def test_rcc_memory_time_enters_the_guard_band():
    bank = bank_of("RCC")
    full_rcc_mshr(bank)
    check = bank._retry_check(request())
    assert_pinned(bank, check,
                  lambda: bank.dram.bump_mnow(bank.rollover.threshold),
                  bank, None)


def test_rcc_rollover_epoch():
    # An atomic waits on an IV line whose lease reaches into the guard
    # band, so its check sends it to the full path. A whole rollover
    # (as ``RolloverManager._finish`` runs it) zeroes the line and leaves
    # every other input as it found it: only the epoch moves.
    bank = bank_of("RCC", bits=8, lease_max=32, lease_default=32)
    line = bank.cache.insert(X, L2State.IV)
    line.exp = bank.rollover.threshold
    check = bank._retry_check(request(MsgKind.ATOMIC))

    def rollover():
        bank.rollover_reset()
        bank.rollover.epoch += 1
    assert_pinned(bank, check, rollover, None, bank)


# ----------------------------------------------------------------------
# TC-strong and TC-weak
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["TCS", "TCW"])
def test_tc_mshr_entry_set(protocol):
    bank = bank_of(protocol)
    bank.mshr.allocate(A)
    bank.mshr.allocate(B)
    check = bank._retry_check(request())
    assert_pinned(bank, check, lambda: bank.mshr.release_if_empty(A),
                  bank, None)


@pytest.mark.parametrize("protocol", ["TCS", "TCW"])
def test_tc_line_presence(protocol):
    bank = bank_of(protocol)
    bank.mshr.allocate(A)
    bank.mshr.allocate(B)
    check = bank._retry_check(request(MsgKind.WRITE))
    assert_pinned(bank, check, lambda: bank.cache.insert(X, L2State.V),
                  bank, None)


@pytest.mark.parametrize("protocol", ["TCS", "TCW"])
def test_tc_parked_lease_expires(protocol):
    # A parked lease holds an MSHR slot until its timer unparks it.
    bank = bank_of(protocol)
    bank.mshr.allocate(A)
    bank.parked[B] = 500
    check = bank._retry_check(request())
    assert_pinned(bank, check, lambda: bank._unpark(B, 500), bank, None)


# ----------------------------------------------------------------------
# MESI
# ----------------------------------------------------------------------
def test_mesi_mshr_entry_set():
    bank = bank_of("MESI")
    bank.mshr.allocate(A)
    bank.mshr.allocate(B)
    check = bank._retry_check(request())
    assert_pinned(bank, check, lambda: bank.mshr.release_if_empty(A),
                  bank, None)


def test_mesi_line_presence():
    bank = bank_of("MESI")
    bank.mshr.allocate(A)
    bank.mshr.allocate(B)
    check = bank._retry_check(request())
    assert_pinned(bank, check, lambda: bank.cache.insert(X, L2State.V),
                  bank, None)


def test_mesi_recall_sent():
    # Evicting a shared line recalls its copies, and the block may not be
    # refetched until every recall is acked. (The eviction also removes
    # the line; here the victim is a line the array no longer holds.)
    bank = bank_of("MESI")
    victim = CacheLine(X, L2State.V)
    victim.sharers.add(CORE)
    check = bank._retry_check(request())
    assert_pinned(bank, check, lambda: bank._on_evict(victim), None, bank)


def test_mesi_recall_acked():
    bank = bank_of("MESI")
    bank._recalls[X] = 1
    check = bank._retry_check(request())
    ack = Message(MsgKind.INV_ACK, X, CORE, ("l2", 0), meta={"recall": True})
    assert_pinned(bank, check, lambda: bank._on_inv_ack(ack), bank, None)


def test_mesi_invalidation_starts():
    bank = bank_of("MESI")
    line = bank.cache.insert(X, L2State.V)
    line.sharers.add(("core", 1))
    check = bank._retry_check(request())
    assert_pinned(bank, check,
                  lambda: bank._on_getx(request(MsgKind.GETX), False),
                  None, bank)


def test_mesi_invalidation_completes():
    bank = bank_of("MESI")
    line = bank.cache.insert(X, L2State.V)
    line.sharers.add(("core", 1))
    bank._on_getx(request(MsgKind.GETX), False)
    check = bank._retry_check(request())
    ack = Message(MsgKind.INV_ACK, X, ("core", 1), ("l2", 0))
    assert_pinned(bank, check, lambda: bank._on_inv_ack(ack), bank, None)
