"""The classic litmus shapes across protocols and physical interleavings.

Each shape (MP, SB, LB, IRIW, CoRR) is a corpus program
(``tests/corpus/<shape>.trace``), run through the simulator at several
staggers and judged by the SC oracle and, for SC protocols, the witness
checker. SC protocols must be SC without fences; WO protocols must be SC
when every memory op is fenced, except IRIW under TC-weak, which gives
up write atomicity (the paper's reason TCW cannot implement SC).
"""

import os

import pytest

from repro.fuzz.corpus import load_program
from repro.fuzz.differential import DifferentialRunner
from tests.conftest import SC_PROTOCOLS, WO_PROTOCOLS

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
SHAPES = ["mp", "sb", "lb", "iriw", "corr"]
STAGGERS = [0, 13, 57, 101, 199]


def _assert_sc(cfg, protocol, shape, fenced):
    runner = DifferentialRunner(cfg=cfg, protocols=[protocol])
    program = load_program(os.path.join(CORPUS, f"{shape}.trace"))
    for stagger in STAGGERS:
        verdict = runner.check_program(program.staggered(stagger, fenced))
        assert verdict.passed and \
            verdict.outcomes[protocol].oracle_verdict is True, (
                f"{protocol} {shape} (fenced={fenced}, stagger={stagger}): "
                f"{verdict.failures or 'no SC interleaving explains it'}")


@pytest.mark.parametrize("protocol", SC_PROTOCOLS)
@pytest.mark.parametrize("shape", SHAPES)
def test_sc_protocols_forbid_without_fences(small_cfg, protocol, shape):
    _assert_sc(small_cfg, protocol, shape, fenced=False)


@pytest.mark.parametrize("shape,protocol", [
    (s, p) for s in SHAPES for p in WO_PROTOCOLS if (s, p) != ("iriw", "TCW")
])
def test_wo_protocols_forbid_when_fenced(small_cfg, protocol, shape):
    _assert_sc(small_cfg, protocol, shape, fenced=True)
