"""Differential fuzzing tests: the SC interleaving oracle on hand-built
observations, a bounded smoke campaign over every registered protocol
(zero SC violations expected), and the closed loop that certifies the
fuzzer can catch a broken protocol — a deliberately TSO-buffered toy
executor must be flagged and shrunk to a minimal reproducer."""

import pytest

from repro.common.types import MemOpKind
from repro.fuzz.differential import (
    DifferentialRunner, ProgramVerdict, run_campaign,
)
from repro.fuzz.generator import FuzzKnobs, FuzzOp, FuzzProgram, \
    generate_program
from repro.fuzz.oracle import (
    INIT, Observation, OracleExhausted, explain, sc_explainable,
)
from repro.fuzz.shrink import shrink_program
from repro.fuzz.toy import broken_store_buffer_executor, \
    reference_sc_executor
from tests.conftest import SC_PROTOCOLS

L = lambda s: FuzzOp(MemOpKind.LOAD, slot=s)
S = lambda s: FuzzOp(MemOpKind.STORE, slot=s)
A = lambda s: FuzzOp(MemOpKind.ATOMIC, slot=s)


def prog(warps, n_addrs=2):
    return FuzzProgram(n_addrs=n_addrs, warps=warps, name="hand")


# ----------------------------------------------------------------------
# Oracle on hand-built observations
# ----------------------------------------------------------------------

MP = prog({(0, 0): [S(0), S(1)], (1, 0): [L(1), L(0)]})


def test_oracle_explains_sc_mp_outcome():
    obs = Observation(reads={(1, 0): [(0, 0, 1), (0, 0, 0)]},
                      final={0: (0, 0, 0), 1: (0, 0, 1)})
    steps = explain(MP, obs)
    assert steps is not None
    assert len(steps) == 4  # full interleaving returned


def test_oracle_rejects_mp_violation():
    # Saw the flag (second store) but stale data: forbidden under SC.
    obs = Observation(reads={(1, 0): [(0, 0, 1), INIT]},
                      final={0: (0, 0, 0), 1: (0, 0, 1)})
    assert explain(MP, obs) is None


def test_oracle_rejects_store_buffering_outcome():
    sb = prog({(0, 0): [S(0), L(1)], (1, 0): [S(1), L(0)]})
    both_stale = Observation(reads={(0, 0): [INIT], (1, 0): [INIT]},
                             final={0: (0, 0, 0), 1: (1, 0, 0)})
    assert not sc_explainable(sb, both_stale)
    one_stale = Observation(reads={(0, 0): [(1, 0, 0)], (1, 0): [INIT]},
                            final={0: (0, 0, 0), 1: (1, 0, 0)})
    assert sc_explainable(sb, one_stale)


def test_oracle_rejects_load_buffering_outcome():
    lb = prog({(0, 0): [L(0), S(1)], (1, 0): [L(1), S(0)]})
    final = {0: (1, 0, 1), 1: (0, 0, 1)}
    # Each load saw the other core's later store.
    both_late = Observation(reads={(0, 0): [(1, 0, 1)], (1, 0): [(0, 0, 1)]},
                            final=final)
    assert not sc_explainable(lb, both_late)
    one_late = Observation(reads={(0, 0): [INIT], (1, 0): [(0, 0, 1)]},
                           final=final)
    assert sc_explainable(lb, one_late)


def test_oracle_rejects_iriw_disagreement():
    iriw = prog({(0, 0): [S(0)], (1, 0): [S(1)],
                 (2, 0): [L(0), L(1)], (3, 0): [L(1), L(0)]})
    final = {0: (0, 0, 0), 1: (1, 0, 0)}
    # The readers saw the two independent stores in opposite orders.
    disagree = Observation(reads={(2, 0): [(0, 0, 0), INIT],
                                  (3, 0): [(1, 0, 0), INIT]}, final=final)
    assert not sc_explainable(iriw, disagree)
    agree = Observation(reads={(2, 0): [(0, 0, 0), INIT],
                               (3, 0): [(1, 0, 0), (0, 0, 0)]}, final=final)
    assert sc_explainable(iriw, agree)


def test_oracle_rejects_corr_going_backwards():
    corr = prog({(0, 0): [S(0), S(0)], (1, 0): [L(0), L(0)]}, n_addrs=1)
    final = {0: (0, 0, 1)}
    for backwards in ([(0, 0, 1), (0, 0, 0)], [(0, 0, 0), INIT]):
        obs = Observation(reads={(1, 0): backwards}, final=final)
        assert not sc_explainable(corr, obs)
    forwards = Observation(reads={(1, 0): [(0, 0, 0), (0, 0, 1)]},
                           final=final)
    assert sc_explainable(corr, forwards)


def test_oracle_atomics_serialize():
    contended = prog({(0, 0): [A(0)], (1, 0): [A(0)]}, n_addrs=1)
    serialized = Observation(reads={(0, 0): [INIT], (1, 0): [(0, 0, 0)]},
                             final={0: (1, 0, 0)})
    assert sc_explainable(contended, serialized)
    # Both atomics reading the initial value means a lost update.
    lost = Observation(reads={(0, 0): [INIT], (1, 0): [INIT]},
                       final={0: (1, 0, 0)})
    assert not sc_explainable(contended, lost)


def test_oracle_rejects_wrong_read_count():
    obs = Observation(reads={(1, 0): [(0, 0, 1)]},  # one read missing
                      final={0: (0, 0, 0), 1: (0, 0, 1)})
    assert explain(MP, obs) is None


def test_oracle_fences_have_no_semantics():
    fenced = prog({(0, 0): [S(0), FuzzOp(MemOpKind.FENCE), L(0)]},
                  n_addrs=1)
    obs = Observation(reads={(0, 0): [(0, 0, 0)]}, final={0: (0, 0, 0)})
    assert sc_explainable(fenced, obs)


def test_oracle_state_budget():
    two_stores = prog({(0, 0): [S(0)], (1, 0): [S(0)]}, n_addrs=1)
    unreachable = Observation(final={0: "?"})
    with pytest.raises(OracleExhausted):
        explain(two_stores, unreachable, max_states=1)
    # With budget, the proof of unexplainability completes.
    assert explain(two_stores, unreachable) is None


def test_reference_executor_always_sc():
    """The depth-0 toy interpreter is SC by construction; every outcome
    it produces must be oracle-explainable (validates the oracle)."""
    ex = reference_sc_executor()
    for seed in range(25):
        p = generate_program(seed, FuzzKnobs(n_cores=3, p_atomic=0.1,
                                             fence_density=0.2))
        out = ex.execute(p)
        assert out.error is None
        assert sc_explainable(p, out.observation)


# ----------------------------------------------------------------------
# Smoke campaigns over the real protocols
# ----------------------------------------------------------------------

@pytest.mark.fuzz_smoke
def test_campaign_no_sc_violations(small_cfg):
    runner = DifferentialRunner(cfg=small_cfg)
    result = run_campaign(runner, seed=0, n_programs=200)
    assert result.passed, [f.describe() for f in result.failures]
    assert result.sc_violations == 0
    for name in SC_PROTOCOLS:
        tally = result.tallies[name]
        assert tally.runs == 200
        assert tally.errors == 0
        assert tally.witness_failures == 0
        assert tally.oracle_failures == 0
    # The report renders like any harness experiment.
    assert "witness_fail" in result.render()


@pytest.mark.fuzz_smoke
def test_campaign_hard_knobs(small_cfg):
    """Contended atomics + fences + compute noise on a 4-core grid."""
    knobs = FuzzKnobs(n_cores=4, ops_per_warp=5, n_addrs=2, p_store=0.4,
                      p_atomic=0.2, fence_density=0.3, sharing="hot",
                      p_compute=0.3)
    runner = DifferentialRunner(cfg=small_cfg)
    result = run_campaign(runner, seed=100, n_programs=40, knobs=knobs)
    assert result.passed, [f.describe() for f in result.failures]
    assert result.sc_violations == 0


# ----------------------------------------------------------------------
# The fuzzer must catch a broken protocol and shrink the evidence
# ----------------------------------------------------------------------

BROKEN_KNOBS = FuzzKnobs(n_cores=2, ops_per_warp=8, n_addrs=2,
                         p_store=0.5, p_atomic=0.0)


@pytest.mark.fuzz_smoke
def test_broken_store_buffer_is_caught_and_shrunk():
    runner = DifferentialRunner(
        executors=[reference_sc_executor(), broken_store_buffer_executor()])
    result = run_campaign(runner, seed=0, n_programs=60,
                          knobs=BROKEN_KNOBS, max_shrinks=2)
    assert not result.passed
    tally = result.tallies["TOY-TSO2"]
    assert tally.sc_violations > 0
    assert result.tallies["TOY-SC"].sc_violations == 0  # only the bug trips
    report = result.failures[0]
    assert report.shrunk is not None
    # The minimal store-buffering reproducer is the 4-op SB core (plus at
    # most buffer filler); the issue's bar is <= 6 ops.
    assert report.shrunk.n_ops <= 6
    assert report.shrunk.n_ops < report.program.n_ops
    assert report.shrunk_reasons  # the reproducer still fails


def test_shrinker_minimizes_synthetic_predicate():
    """Independent of any executor: ddmin must isolate the one op the
    predicate keys on."""
    p = generate_program(17, FuzzKnobs(n_cores=3, ops_per_warp=8,
                                       n_addrs=3, p_store=0.5))

    def still_fails(q):
        return any(op.kind is MemOpKind.STORE and op.slot == 0
                   for _, _, op in q.iter_ops())

    assert still_fails(p)
    shrunk = shrink_program(p, still_fails)
    assert shrunk.n_ops == 1
    assert len(shrunk.warps) == 1
    only = next(op for _, _, op in shrunk.iter_ops())
    assert only.kind is MemOpKind.STORE and only.slot == 0


def test_verdict_failure_reporting():
    runner = DifferentialRunner(
        executors=[broken_store_buffer_executor(depth=4)])
    # Guaranteed SB trip under round-robin: both stores sit buffered while
    # both loads read init (w0's trailing load keeps it live so its drain
    # can't land before w1's stale load).
    sb = prog({(0, 0): [S(0), L(1), L(1)], (1, 0): [S(1), L(0)]})
    verdict = runner.check_program(sb)
    assert isinstance(verdict, ProgramVerdict)
    assert not verdict.passed
    assert any("oracle" in f for f in verdict.failures)
    assert "FAIL" in verdict.describe()
