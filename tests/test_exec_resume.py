"""Kill-and-resume equivalence for journaled campaigns.

Each case runs a real campaign in a child process with the chaos
campaign-kill armed (``RCC_CHAOS=exit-after=N``): the child dies by
``os._exit`` right after journaling its N-th completed cell — the
deterministic stand-in for a CI SIGKILL. A second child with the same
flags (chaos off) must *resume*: replay the N journaled cells without
re-running any of them, finish the rest, and produce output
byte-identical (modulo wall-clock fields) to a clean run in a fresh
directory.
"""

from __future__ import annotations

import pytest

from repro.chaos.campaign import CHILD_KINDS, kill_resume_roundtrip

pytestmark = pytest.mark.chaos


@pytest.mark.parametrize("kind", CHILD_KINDS)
def test_kill_and_resume_round_trip(kind, tmp_path):
    outcome = kill_resume_roundtrip(kind, str(tmp_path))
    assert outcome.ok, outcome.describe()
