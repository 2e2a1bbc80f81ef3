"""Contract battery for the L2's lease predictor (paper §III-E).

The predictor must satisfy the contract the RCC protocol layers rely on:

* **bounds**: every grant lies within ``[lease_min, lease_max]``; the
  rollover guard band (§III-D) is sized from ``lease_max``, so a longer
  grant could overflow the timestamp width between rollover checks;
* **renew never shortens**: observing a successful renew never shrinks
  the lease the predictor grants next for the same block;
* **monotone lease end**: folding any grant stream through the L2's
  grant formula ``exp' = max(exp, ver + lease, now + lease)`` under
  monotone reads never moves a block's lease end backward;
* **determinism**: identical observation streams produce identical grant
  sequences from fresh instances (the sweep cache keys results by
  configuration alone).

Plus the sanitizer invariant that enforces the bound on every grant of a
run, and the ``.cell`` schema's retired ``lease_policy`` field.

While the L2 could run several lease policies this battery swept each of
them; the paper's rule was the one named ``fixed``, and its cases keep
the ``fixed`` id they had then.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.config import GPUConfig, TimestampConfig
from repro.core.lease import LeasePredictor
from repro.errors import ReproError
from repro.exec.cells import SimCell
from repro.fuzz.cellfile import CELL_SCHEMA, load_cell, replay_cell, save_cell
from repro.mem.cache_array import CacheLine
from repro.sanitize.events import CoherenceEvent, EventKind
from repro.sanitize.invariants import RCCInvariants, suites_for
from repro.sanitize.sanitizer import Sanitizer

#: The paper's rule, under the name the retired policy registry gave it.
POLICIES = ["fixed"]


def _cfg(**kw) -> TimestampConfig:
    cfg = TimestampConfig(**kw)
    cfg.validate()
    return cfg


# ----------------------------------------------------------------------
# Observation streams
# ----------------------------------------------------------------------

def observation_stream(seed: int, n_events: int = 200, n_lines: int = 4):
    """A seeded stream of the events an L2 bank feeds its predictor.

    Reads carry a monotonically advancing requester clock (logical time
    never runs backward at one bank); writes bump the line's version past
    its lease end the way RCC rule 3 does.
    """
    rng = random.Random(seed)
    now = 0
    events = []
    for _ in range(n_events):
        line_idx = rng.randrange(n_lines)
        kind = rng.choices(["read", "write", "renew"], weights=[6, 2, 1])[0]
        now += rng.randrange(0, 300)
        events.append((kind, line_idx, now))
    return events


def replay(pred: LeasePredictor, events, lines=None):
    """Feed one stream to a predictor; return the grant sequence and the
    per-line lease-end history the grant formula produces."""
    lines = lines if lines is not None else {}
    grants = []
    exp_history = []
    for kind, line_idx, now in events:
        line = lines.setdefault(line_idx, CacheLine(line_idx << 7, "V"))
        if kind == "read":
            lease = pred.lease_for(line)
            grants.append(lease)
            line.exp = max(line.exp, line.ver + lease, now + lease)
            exp_history.append((line_idx, line.exp))
        elif kind == "write":
            line.ver = max(line.ver, now, line.exp + 1)
            pred.on_write(line)
        else:
            pred.on_renew(line)
    return grants, exp_history


# ----------------------------------------------------------------------
# The contract
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", POLICIES)
@pytest.mark.parametrize("seed", [0, 7, 99])
def test_decisions_stay_within_bounds(name, seed):
    cfg = _cfg()
    grants, _ = replay(LeasePredictor(cfg), observation_stream(seed))
    assert grants, "stream produced no reads"
    for lease in grants:
        assert cfg.lease_min <= lease <= cfg.lease_max, (
            f"{name}: grant {lease} escapes "
            f"[{cfg.lease_min}, {cfg.lease_max}] — the §III-D guard band "
            "no longer covers it")


@pytest.mark.parametrize("name", POLICIES)
def test_bounds_hold_with_predictor_disabled(name):
    cfg = _cfg(predictor_enabled=False)
    grants, _ = replay(LeasePredictor(cfg), observation_stream(3))
    for lease in grants:
        assert cfg.lease_min <= lease <= cfg.lease_max


@pytest.mark.parametrize("name", POLICIES)
@pytest.mark.parametrize("seed", [1, 42])
def test_renew_never_shortens_next_lease(name, seed):
    """Two fresh predictors see the same stream; one then observes one
    extra successful renew. Its next grant must not be shorter: renewal
    is the *profitable* signal, and a predictor that shrank on it would
    punish exactly the blocks renewing works for."""
    events = observation_stream(seed, n_events=120)
    base, extra = LeasePredictor(_cfg()), LeasePredictor(_cfg())
    lines_a, lines_b = {}, {}
    replay(base, events, lines_a)
    replay(extra, events, lines_b)
    probe_a = lines_a.setdefault(0, CacheLine(0, "V"))
    probe_b = lines_b.setdefault(0, CacheLine(0, "V"))
    extra.on_renew(probe_b)
    assert extra.lease_for(probe_b) >= base.lease_for(probe_a)


@pytest.mark.parametrize("name", POLICIES)
@pytest.mark.parametrize("seed", [0, 13, 77])
def test_lease_end_monotone_per_block(name, seed):
    """Under the grant formula, a block's lease end never regresses
    whatever the predictor grants (monotone reads feed it)."""
    _, exp_history = replay(LeasePredictor(_cfg()), observation_stream(seed))
    last = {}
    for line_idx, exp in exp_history:
        assert exp >= last.get(line_idx, 0), (
            f"{name}: lease end on line {line_idx} moved backward")
        last[line_idx] = exp


@pytest.mark.parametrize("name", POLICIES)
@pytest.mark.parametrize("seed", [5, 21])
def test_deterministic_given_same_stream(name, seed):
    events = observation_stream(seed)
    a, _ = replay(LeasePredictor(_cfg()), events)
    b, _ = replay(LeasePredictor(_cfg()), events)
    assert a == b


@pytest.mark.parametrize("name", POLICIES)
def test_decisions_respect_tightened_band(name):
    """Shrinking the configured band shrinks every grant with it: the
    predictor reads the band from the config, never hardcodes it."""
    cfg = _cfg(lease_min=16, lease_default=24, lease_max=32)
    grants, _ = replay(LeasePredictor(cfg), observation_stream(11))
    for lease in grants:
        assert 16 <= lease <= 32


# ----------------------------------------------------------------------
# .cell schema: the retired lease_policy field
# ----------------------------------------------------------------------

def _write_doc(path, **fields):
    """Save a loadable cell, lay ``fields`` over its document, and return
    the cell."""
    cell = SimCell(cfg=GPUConfig.small(), protocol="RCC",
                   workload="storm:hot_blocks=2", intensity=0.5, seed=9,
                   ts_overrides=(("bits", 12),))
    save_cell(path, cell, "small")
    with open(path) as fh:
        doc = json.load(fh)
    doc.update(fields)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return cell


class TestRegistry:
    """The policy registry is gone; a cell file is the one place a policy
    name can still arrive, and only the paper's ``fixed`` is accepted."""

    def test_unknown_policy_rejected_at_validate(self, tmp_path):
        """A reproducer found under a retired policy (or one that never
        existed) is refused rather than replayed under the paper's rule,
        and a replay reports it as unreadable."""
        for policy in ("adaptive", "nope"):
            path = str(tmp_path / f"{policy}.cell")
            _write_doc(path, lease_policy=policy)
            with pytest.raises(ReproError, match=policy):
                load_cell(path)
            replay = replay_cell(path)
            assert not replay.passed and "unreadable" in replay.reasons[0]


class TestCellSchema:
    def test_policy_promoted_to_top_level(self, tmp_path):
        """Files written while the L2 could run other policies carry the
        policy at top level; ``"fixed"`` named the paper's predictor,
        which every cell runs, so the file loads as if it were absent."""
        path = str(tmp_path / "fixed.cell")
        cell = _write_doc(path, lease_policy="fixed")
        loaded, doc = load_cell(path)
        assert doc["lease_policy"] == "fixed"
        assert loaded == cell

    def test_cell_without_policy_round_trips(self, tmp_path):
        path = str(tmp_path / "np.cell")
        cell = _write_doc(path)
        with open(path) as fh:
            doc = json.load(fh)
        assert "lease_policy" not in doc
        loaded, _ = load_cell(path)
        assert loaded == cell

    def test_pre_policy_document_still_parses(self, tmp_path):
        """A corpus file written before the field existed (hand-built
        here, byte-for-byte the old shape) loads unchanged."""
        doc = {
            "schema": CELL_SCHEMA, "kind": "hostile-cell",
            "config": "small", "protocol": "RCC-WO", "workload": "storm",
            "intensity": 1.0, "seed": 3,
            "ts_overrides": [["bits", 11], ["predictor_enabled", False]],
            "reason": "", "expect": {},
        }
        path = str(tmp_path / "old.cell")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        loaded, _ = load_cell(path)
        assert loaded.ts_overrides == (("bits", 11),
                                       ("predictor_enabled", False))
        assert not loaded.effective_cfg().ts.predictor_enabled


# ----------------------------------------------------------------------
# Sanitizer: the policy-ceiling invariant on grants
# ----------------------------------------------------------------------

class TestPolicyCeilingInvariant:
    """``rcc.grant.policy_ceiling``: a grant may stretch a lease at most
    ``lease_max`` past ``max(ver, m_now)`` — any further and the §III-D
    rollover guard band (sized from ``lease_max``) no longer covers it.
    The bound is against ``max(prev_exp, ...)``: an earlier grant to a
    higher-clock requester can legally leave ``exp`` beyond a later
    low-clock requester's own window."""

    LEASE_MAX = 64

    def _suite(self):
        return RCCInvariants(ts_bits=16, lease_max=self.LEASE_MAX)

    def _grant(self, seq=1, **fields):
        base = {"ver": 0, "m_now": 0, "prev_exp": 0, "epoch": 0}
        base.update(fields)
        return CoherenceEvent(seq, cycle=seq, kind=EventKind.L2_READ_GRANT,
                              unit="L2", unit_id=0, addr=0x80,
                              fields=base)

    def test_in_band_grant_passes(self):
        suite = self._suite()
        ev = self._grant(ver=10, m_now=100, prev_exp=50,
                         exp=100 + self.LEASE_MAX)
        assert suite.check(ev) is None

    def test_overlong_grant_caught(self):
        suite = self._suite()
        ev = self._grant(ver=10, m_now=100, prev_exp=50,
                         exp=100 + self.LEASE_MAX + 1)
        violation = suite.check(ev)
        assert violation is not None
        assert violation.invariant == "rcc.grant.policy_ceiling"

    def test_inherited_long_exp_is_legal(self):
        """exp far past this requester's window is fine when a previous
        grant put it there (prev_exp carries it)."""
        suite = self._suite()
        ev = self._grant(ver=10, m_now=20, prev_exp=5000, exp=5000)
        assert suite.check(ev) is None

    def test_check_skipped_without_lease_max(self):
        suite = RCCInvariants(ts_bits=16)
        ev = self._grant(ver=0, m_now=0, prev_exp=0, exp=10 ** 4)
        assert suite.check(ev) is None

    def test_suites_for_wires_lease_max(self):
        suites = suites_for("RCC", ts_bits=16, lease_max=self.LEASE_MAX)
        rcc = [s for s in suites if isinstance(s, RCCInvariants)]
        assert rcc and rcc[0].lease_max == self.LEASE_MAX

    def test_sanitizer_passes_config_lease_max(self):
        cfg = GPUConfig.small()
        san = Sanitizer("RCC-WO", cfg)
        rcc = [s for s in san.suites if isinstance(s, RCCInvariants)]
        assert rcc and rcc[0].lease_max == cfg.ts.lease_max
