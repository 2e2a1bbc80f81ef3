"""Issue-stage gates: whole cells against the ungated probe, and one case
per gate input.

``L1ControllerBase.would_stall``, the one stall rule of every L1, may
answer a structurally stalled probe with a *gate*, an object that stays
truthy for as long as the probe would still stall. The core keeps one gate
per warp and, while it is shut, skips the warp's re-probe, counting the
stall and taking the op id as the probe would have. There are two gates,
each the very state the verdict reads:

* a store behind an earlier store to its block (MESI, TC-strong, SC-IDEAL)
  gets the blocking entry's ``pending_stores`` list;
* an op whose block has no entry in a full MSHR file gets
  ``mshr.full_gate``, which the file empties and replaces at each release.

A load that finds every way of its set pinned gets ``True`` and is
re-probed as before.

The oracle is the ungated probe: the base probe wrapped to return
``bool(...)``, so the core never holds a gate. Whole sanitized
cells must match it in payload and sanitizer event stream. The unit cases
change one gate input each, through the controller code that changes it,
and check that the gate flips with the verdict.
"""

import dataclasses
import hashlib
import json
from collections import Counter

import pytest

import repro.common
import repro.common.types
from repro.coherence.base import L1ControllerBase
from repro.common.messages import Message
from repro.common.types import MemOpKind, MsgKind
from repro.config import GPUConfig
from repro.core.rcc_wo import RCCWOL1Controller
from repro.gpu.trace import load_op, store_op
from repro.gpu.warp import MemOpRecord
from repro.mem.mshr import MSHRFile
from repro.sanitize.sanitizer import Sanitizer
from repro.sim.gpusim import GPUSimulator
from repro.workloads import get_workload
from tests.conftest import ALL_PROTOCOLS, empty_traces, program_traces

LOAD, STORE = MemOpKind.LOAD, MemOpKind.STORE
BLOCK = 128
X, Y, A, B = 10 * BLOCK, 11 * BLOCK, 20 * BLOCK, 30 * BLOCK

#: The one probe every L1 inherits.
_PROBES = {L1ControllerBase: L1ControllerBase.__dict__["would_stall"]}


def probe(l1, kind, addr):
    """``l1.would_stall`` as the base class defines it, bypassing any
    wrapper a test has installed."""
    return _PROBES[L1ControllerBase](l1, kind, addr)


def _small_l1(**fields) -> GPUConfig:
    cfg = GPUConfig.small()
    return cfg.replace(l1=dataclasses.replace(cfg.l1, **fields))


# ----------------------------------------------------------------------
# Whole cells against the ungated probe
# ----------------------------------------------------------------------
#: Same-block gates on the small machine; full-file gates, WO warps with
#: outstanding ops among them, with two L1 MSHRs; and ``True`` answers on
#: a direct-mapped L1, whose sets pin while its MSHR file has room.
GATE_GRID = (
    [(GPUConfig.small(), p, w) for p in ("MESI", "TCS", "SC-IDEAL")
     for w in ("pingpong", "storm")]
    + [(_small_l1(mshr_entries=2), p, w)
       for p in ("TCW", "RCC-WO", "RCC", "MESI") for w in ("kmn", "thrash")]
    + [(_small_l1(assoc=1), "MESI", "bfs")])


class _ShadowGates(list):
    """A core's gate column that checks each shut gate the issue scan
    reads: a fresh probe of the warp's op must still stall."""

    def __init__(self, core, counts):
        super().__init__(core._gates)
        self.core = core
        self.counts = counts

    def __getitem__(self, j):
        gate = list.__getitem__(self, j)
        if gate:
            warp = self.core.warps[j]
            op = warp.ops[warp.pc]
            self.counts["skipped"] += 1
            self.counts["skipped_with_outstanding"] += bool(warp.outstanding)
            if not probe(self.core.l1, op.kind, op.addr):
                self.counts["open_at_skip"] += 1
        return gate


def _run(monkeypatch, cfg, protocol, workload, gated):
    """Run one sanitized cell, gated or on the ungated probe. Returns the
    payload JSON, the SHA-256 of the sanitizer event stream, and counts of
    the probe's answers and of the skipped probes."""
    counts = Counter()
    for cls, orig in _PROBES.items():
        if gated:
            def would_stall(self, kind, addr, _orig=orig):
                gate = _orig(self, kind, addr)
                if gate is True:
                    counts["pinned"] += 1
                elif gate is self.mshr.full_gate:
                    counts["full"] += 1
                elif gate:
                    counts["same_block"] += 1
                return gate
        else:
            def would_stall(self, kind, addr, _orig=orig):
                return bool(_orig(self, kind, addr))
        monkeypatch.setattr(cls, "would_stall", would_stall)
    digest = hashlib.sha256()
    real_emit = Sanitizer.emit

    def tee(self, kind, unit, unit_id, cycle, addr, **fields):
        digest.update(json.dumps([kind, unit, unit_id, cycle, addr, fields],
                                 sort_keys=True).encode() + b"\n")
        real_emit(self, kind, unit, unit_id, cycle, addr, **fields)

    monkeypatch.setattr(Sanitizer, "emit", tee)
    wl = get_workload(workload, intensity=0.25, seed=3)
    sim = GPUSimulator(cfg, protocol, wl.generate(cfg), workload,
                       sanitize=True)
    if gated:
        for core in sim.cores:
            core._gates = _ShadowGates(core, counts)
    result = sim.run()
    monkeypatch.undo()
    return (json.dumps(result.to_payload(), sort_keys=True),
            digest.hexdigest(), counts)


def test_gated_issue_matches_the_ungated_probe(monkeypatch):
    totals = Counter()
    for cfg, protocol, workload in GATE_GRID:
        payload, stream, counts = _run(monkeypatch, cfg, protocol, workload,
                                       gated=True)
        payload_ref, stream_ref, _ = _run(monkeypatch, cfg, protocol,
                                          workload, gated=False)
        cell = f"{protocol}/{workload}"
        assert payload == payload_ref, f"{cell}: payload differs"
        assert stream == stream_ref, f"{cell}: sanitizer stream differs"
        assert counts["open_at_skip"] == 0, f"{cell}: skipped an open op"
        totals.update(counts)
    # Every answer was given, and gated warps were skipped, WO warps with
    # outstanding ops among them.
    for key in ("same_block", "full", "pinned", "skipped",
                "skipped_with_outstanding"):
        assert totals[key] > 0, (key, dict(totals))


# ----------------------------------------------------------------------
# One case per gate input
# ----------------------------------------------------------------------
def machine(protocol, mshrs=16, programs=None):
    """An idle small machine whose crossbar drops what it is sent, so
    nothing reaches an L2 unless a case delivers the reply itself."""
    cfg = _small_l1(mshr_entries=mshrs)
    assert cfg.l1.block_bytes == BLOCK
    traces = (program_traces(cfg, programs) if programs
              else empty_traces(cfg))
    sim = GPUSimulator(cfg, protocol, traces)
    sim.noc.send = lambda msg: None
    return sim


def l1_of(protocol, mshrs=16):
    return machine(protocol, mshrs).proto.l1s[0]


def issue(l1, kind, addr, warp_idx=0):
    """Put one op into the L1 as the core would after a clear probe; it
    must miss, into its block's MSHR entry."""
    warp = l1.core.warps[warp_idx]
    record = MemOpRecord(kind, addr, l1.core_id, warp.warp_id, 0)
    if kind.is_write:
        record.value = (l1.core_id, warp.warp_id, record.seq)
    assert not l1.would_stall(kind, addr)
    l1.access(record, warp)
    entry = l1.mshr.get(l1.block_of(addr))
    assert any(item[0] is record
               for item in entry.waiting_loads + entry.pending_stores)
    warp.outstanding.append(record)
    return record, warp


def ack(l1, record, warp):
    """Deliver the L2's ack of a store."""
    l1.on_message(Message(MsgKind.ACK, l1.block_of(record.addr), ("l2", 0),
                          l1.endpoint, ver=1,
                          meta={"record": record, "warp": warp}))


def flips(l1, kind, addr, gate, change):
    """Run ``change``; report the (verdict, gate) truth before and after."""
    before = (bool(l1.would_stall(kind, addr)), bool(gate))
    change()
    return before, (bool(l1.would_stall(kind, addr)), bool(gate))


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_one_stall_rule(protocol):
    # Every L1 stalls by the base probe alone, from two facts of its own
    # (``_hit`` and ``serializes_stores``), and ``access`` has no stall
    # exit: only RCC-WO wraps it, to join its views for an atomic.
    l1 = l1_of(protocol)
    below_base = type(l1).__mro__[:type(l1).__mro__.index(L1ControllerBase)]
    for cls in below_base:
        assert "would_stall" not in cls.__dict__, cls
        assert "_maybe_release" not in cls.__dict__, cls
        assert ("access" in cls.__dict__) == (cls is RCCWOL1Controller), cls
    assert l1.serializes_stores is (protocol in ("MESI", "SC-IDEAL", "TCS"))
    # ``access`` returns nothing, so no outcome enum is left to name it.
    assert not [name for name in dir(repro.common) + dir(repro.common.types)
                if name.endswith("Outcome")]


@pytest.mark.parametrize("protocol", ["MESI", "TCS", "SC-IDEAL"])
def test_store_gate_opens_at_the_ack_that_empties_its_block(protocol):
    # A load merged into the block's entry keeps the entry alive past the
    # ack, so the gate must open at the ack itself, not at a release.
    l1 = l1_of(protocol)
    first = issue(l1, STORE, X)
    gate = l1.would_stall(STORE, X)
    assert gate is l1.mshr.get(X).pending_stores
    assert flips(l1, STORE, X, gate,
                 lambda: issue(l1, LOAD, X, warp_idx=1)) == ((True, True),
                                                           (True, True))
    assert flips(l1, STORE, X, gate,
                 lambda: ack(l1, *first)) == ((True, True), (False, False))
    assert X in l1.mshr


@pytest.mark.parametrize("protocol", ["TCW", "RCC", "RCC-WO"])
def test_stores_that_do_not_serialize_get_no_same_block_gate(protocol):
    l1 = l1_of(protocol)
    issue(l1, STORE, X)
    assert l1.would_stall(STORE, X) is False
    issue(l1, STORE, X, warp_idx=1)
    assert len(l1.mshr.get(X).pending_stores) == 2


@pytest.mark.parametrize("kind", [LOAD, STORE])
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_full_file_gate_opens_at_release(protocol, kind):
    l1 = l1_of(protocol, mshrs=2)
    first = issue(l1, STORE, A)
    issue(l1, STORE, B, warp_idx=1)
    gate = l1.would_stall(kind, X)
    assert gate is l1.mshr.full_gate
    # A load merging into B's entry allocates no entry: the gate holds.
    assert flips(l1, kind, X, gate,
                 lambda: issue(l1, LOAD, B, warp_idx=2)) == ((True, True),
                                                            (True, True))
    assert flips(l1, kind, X, gate,
                 lambda: ack(l1, *first)) == ((True, True), (False, False))
    assert A not in l1.mshr


def test_full_file_gate_opens_only_when_release_if_empty_releases():
    # Only the L2s call ``release_if_empty``, and their files hand out no
    # gates, so no whole run reaches this; the file's contract still does.
    mshr = MSHRFile(2)
    mshr.allocate(A)
    mshr.allocate(B).pending_stores.append("held")
    gate = mshr.full_gate
    assert gate
    mshr.allocate(B)
    assert gate
    assert not mshr.release_if_empty(B)
    assert gate
    assert mshr.release_if_empty(A)
    assert not gate
    assert mshr.full_gate and mshr.full_gate is not gate


@pytest.mark.parametrize("protocol", ["MESI", "TCS"])
def test_a_warps_gate_is_dropped_when_it_issues(protocol):
    # Warp A is gated on X behind D's store, then issues its own store to
    # X into the same ``pending_stores`` list (C's load keeps X's entry
    # alive). After A's ack, B's store refills that list in the cycle A
    # wakes, so a gate A kept would still be shut. A's next op targets a
    # free block: it must be probed, and it must issue.
    sim = machine(protocol, programs={
        (0, 0): [store_op(X)],                 # D
        (0, 1): [store_op(X), store_op(Y)],    # A
        (0, 2): [store_op(X)],                 # B
        (0, 3): [load_op(X)],                  # C
    })
    l1, core = sim.proto.l1s[0], sim.cores[0]
    d, a, b = core.warps[:3]

    def ack_store_of(warp):
        (record,) = warp.outstanding
        ack(l1, record, warp)
        sim.engine.run()

    for c in sim.cores:
        c.start()
    sim.engine.run()
    pending = l1.mshr.get(X).pending_stores
    assert core._gates[a.idx] is pending and core._gates[b.idx] is pending
    ack_store_of(d)
    assert a.pc == 1 and [w for _, w in pending] == [a]
    ack_store_of(a)
    assert [w for _, w in pending] == [b]
    assert a.pc == 2, "A's next op was not probed"
    assert [r.addr for r in a.outstanding] == [Y]
