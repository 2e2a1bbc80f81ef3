"""Regression corpus replay: every shrunk reproducer checked into
``tests/corpus/`` is re-run under every registered protocol, with the
coherence sanitizer on, on every test run, plus round-trip tests for the
corpus text format (which doubles as a plain repro-trace workload
file)."""

import os

import pytest

from repro.fuzz.corpus import (
    load_corpus, load_program, program_from_text, program_to_text,
    save_program,
)
from repro.fuzz.differential import DifferentialRunner
from repro.fuzz.generator import FuzzKnobs, generate_program
from repro.workloads.tracefile import MAGIC

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = load_corpus(CORPUS_DIR)


def test_corpus_is_nonempty():
    names = [name for name, _ in CORPUS]
    assert len(names) >= 8
    # The classic litmus shapes must stay represented.
    for required in ("mp.trace", "sb.trace", "lb.trace", "iriw.trace",
                     "corr.trace", "toy-tso-shrunk.trace"):
        assert required in names


@pytest.mark.fuzz_smoke
@pytest.mark.parametrize("filename,program", CORPUS,
                         ids=[name for name, _ in CORPUS])
def test_corpus_replays_clean_under_all_protocols(small_cfg, filename,
                                                  program):
    runner = DifferentialRunner(cfg=small_cfg, sanitize=True)
    verdict = runner.check_program(program)
    assert verdict.passed, verdict.describe()


def test_corpus_files_are_valid_trace_files():
    for path in (os.path.join(CORPUS_DIR, n) for n, _ in CORPUS):
        with open(path) as f:
            assert f.readline().rstrip() == MAGIC


def test_text_round_trip():
    p = generate_program(4, FuzzKnobs(n_cores=3, warps_per_core=2,
                                      n_addrs=3, p_atomic=0.1,
                                      fence_density=0.3,
                                      p_compute=0.3)).normalized()
    q = program_from_text(program_to_text(p))
    assert q.warps == p.warps
    assert q.n_addrs == len(p.used_slots())
    assert q.seed == p.seed  # parsed back from the "# seed:" header


def test_save_load_round_trip(tmp_path):
    p = generate_program(8, FuzzKnobs(n_addrs=2)).normalized()
    path = str(tmp_path / "repro.trace")
    save_program(path, p, comments=["unit-test entry"])
    q = load_program(path)
    assert q.warps == p.warps
    assert q.name == "repro"  # name comes from the file stem
    with open(path) as f:
        text = f.read()
    assert "unit-test entry" in text
