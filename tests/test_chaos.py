"""The deterministic chaos layer: spec grammar, pure draws, and the
executor contract battery.

Every fault a plan can inject must leave the sweep stack in one of two
legal states: correct results in input order, or a structured
:class:`~repro.errors.HarnessError` in the failure taxonomy. The battery
plans in :data:`repro.chaos.campaign.DEFAULT_PLANS` assert exactly that,
one fault kind and execution mode at a time.
"""

from __future__ import annotations

import errno

import pytest

from repro.chaos import FaultPlan
from repro.chaos.campaign import DEFAULT_PLANS, _run_cache_plan, _run_map_plan
from repro.chaos.plan import ChaosError
from repro.exec import SweepExecutor
from repro.settings import Settings
from tests.conftest import ENV


class TestSpecGrammar:
    def test_bare_kind_defaults(self):
        plan = FaultPlan.parse("flaky")
        spec = plan.faults["flaky"]
        assert (spec.prob, spec.mode) == (1.0, "first")
        assert plan.seed == 0

    def test_full_clause_and_directives(self):
        plan = FaultPlan.parse("crash:0.3:always;hang;seed=7;hang-s=2.5")
        assert plan.faults["crash"].prob == 0.3
        assert plan.faults["crash"].mode == "always"
        assert "hang" in plan.faults
        assert plan.seed == 7
        assert plan.hang_s == 2.5

    def test_empty_clauses_tolerated(self):
        plan = FaultPlan.parse(";flaky;;")
        assert set(plan.faults) == {"flaky"}

    @pytest.mark.parametrize("bad", [
        "meteor-strike",            # unknown fault kind
        "crash:1.5",                # probability out of range
        "crash:-0.1",
        "crash:0.5:sometimes",      # unknown mode
        "crash:notafloat",
        "seed=notanint",
        "exit-after=maybe",
        "exit-after=3",             # the retired campaign-kill directive
        "turbo=1",                  # unknown directive
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ChaosError):
            FaultPlan.parse(bad)


class TestDeterminism:
    def test_decide_is_pure(self):
        a = FaultPlan.parse("flaky:0.5;seed=42")
        b = FaultPlan.parse("flaky:0.5;seed=42")
        ids = [f"cell[{i}]" for i in range(64)]
        assert ([a.decide("worker", "flaky", i) for i in ids]
                == [b.decide("worker", "flaky", i) for i in ids])

    def test_seed_changes_the_draw(self):
        ids = [f"cell[{i}]" for i in range(64)]
        a = FaultPlan.parse("flaky:0.5;seed=1")
        b = FaultPlan.parse("flaky:0.5;seed=2")
        assert ([a.decide("worker", "flaky", i) for i in ids]
                != [b.decide("worker", "flaky", i) for i in ids])

    def test_prob_extremes(self):
        never = FaultPlan.parse("flaky:0")
        always = FaultPlan.parse("flaky:1")
        ids = [f"cell[{i}]" for i in range(16)]
        assert not any(never.decide("worker", "flaky", i) for i in ids)
        assert all(always.decide("worker", "flaky", i) for i in ids)

    def test_mode_first_spares_retries(self):
        plan = FaultPlan.parse("flaky")
        assert plan.decide("worker", "flaky", "c", attempt=1)
        assert not plan.decide("worker", "flaky", "c", attempt=2)
        forever = FaultPlan.parse("flaky:1:always")
        assert forever.decide("worker", "flaky", "c", attempt=5)

    def test_unlisted_kind_never_fires(self):
        plan = FaultPlan.parse("flaky")
        assert not plan.decide("worker", "crash", "c")


class TestByteCorruption:
    def test_torn_write_truncates(self):
        plan = FaultPlan.parse("torn-write")
        data = b'{"key": "value", "result": {"cycles": 12345}}'
        damaged, kind = plan.corrupt_bytes("k", data)
        assert kind == "torn-write"
        assert damaged == data[:len(data) // 2]

    def test_bit_flip_changes_one_interior_byte(self):
        plan = FaultPlan.parse("bit-flip;seed=3")
        data = b'{"key": "value", "result": {"cycles": 12345}}'
        damaged, kind = plan.corrupt_bytes("k", data)
        assert kind == "bit-flip"
        assert len(damaged) == len(data)
        diffs = [i for i in range(len(data)) if damaged[i] != data[i]]
        assert len(diffs) == 1
        assert 0 < diffs[0] < len(data) - 1, "flip hit the JSON envelope"

    def test_no_cache_faults_passes_through(self):
        plan = FaultPlan.parse("flaky")
        data = b'{"intact": true}'
        assert plan.corrupt_bytes("k", data) == (data, None)

    def test_enospc_raises_with_errno(self):
        plan = FaultPlan.parse("enospc")
        with pytest.raises(OSError) as err:
            plan.check_write("k")
        assert err.value.errno == errno.ENOSPC
        clean = FaultPlan.parse("flaky")
        clean.check_write("k")  # no-op


class TestEnvPlumbing:
    """How ``RCC_CHAOS`` becomes the executor's one fault plan."""

    def test_unset_means_no_plan(self):
        for env in ({}, {"RCC_CHAOS": ""}):
            settings = Settings.from_env(env)
            assert settings.chaos is None
            assert SweepExecutor(settings).plan is None
        plan = SweepExecutor(Settings(chaos="flaky;seed=5")).plan
        assert plan.seed == 5 and "flaky" in plan.faults


class TestContractBattery:
    """One pytest case per battery plan: inject the fault, assert the
    executor contract (see :mod:`repro.chaos.campaign`)."""

    @pytest.mark.parametrize(
        "plan", DEFAULT_PLANS,
        ids=[f"{p.mode}-{p.spec.split(';')[0]}" for p in DEFAULT_PLANS])
    def test_plan_upholds_contract(self, plan, tmp_path):
        if plan.mode == "cache":
            outcome = _run_cache_plan(plan, str(tmp_path), ENV.sanitize)
        else:
            outcome = _run_map_plan(plan)
        assert outcome.ok, outcome.describe()
