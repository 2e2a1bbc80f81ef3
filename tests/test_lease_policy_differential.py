"""Lease differential battery: lease sizing tunes timing, never SC.

A lease's length only tunes *performance* — how long copies stay
readable, how often they renew. Sequential consistency must be
untouched: however the L2 sizes its leases, every litmus program stays
SC-explainable and every hostile campaign stays violation-free under the
sanitizer. The lease settings swept are the paper's predictor (§III-E)
and its two Fig. 7 ablations, through

* the checked-in litmus corpus (``tests/corpus/*.trace``) with the
  differential runner — RCC and RCC-WO execute with the sanitizer armed,
  and each observation is cross-checked against the SC interleaving
  oracle; any divergence fails; and
* a small hostile-lab smoke grid (one unmutated center point per regime)
  on RCC and RCC-WO.

While the L2 could run several lease policies this battery swept each of
them; the paper's rule was the one named ``fixed``, and its cases keep
the ``fixed`` id they had then.

Failures are archived as replayable reproducers (``.trace`` for litmus,
``.cell`` for hostile runs) in the directory named by the
``REPRO_FUZZ_ARCHIVE`` environment variable (default: a temp directory);
the assertion message points at them.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.config import named_config
from repro.fuzz.cellfile import save_cell
from repro.fuzz.corpus import corpus_files, load_program, save_program
from repro.fuzz.differential import DifferentialRunner
from repro.fuzz.workloads import run_hostile_campaign

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

#: The paper's rule, under the name the retired policy registry gave it.
POLICIES = ["fixed"]

#: The paper's predictor and its Fig. 7 ablations, as TimestampConfig
#: overrides.
LEASE_SETTINGS = {
    "predictor": {},
    "no-predictor": {"predictor_enabled": False},
    "no-renew": {"renew_enabled": False},
}

#: Only the RCC variants size leases with the predictor; the SC oracle
#: supplies the lease-independent ground truth each observation is
#: checked against.
PROTOCOLS = ["RCC", "RCC-WO"]


def _archive_dir(tmp_path) -> str:
    path = os.environ.get("REPRO_FUZZ_ARCHIVE") or str(tmp_path / "findings")
    os.makedirs(path, exist_ok=True)
    return path


def _runner(setting: str) -> DifferentialRunner:
    cfg = named_config("small")
    cfg = cfg.replace(ts=dataclasses.replace(cfg.ts,
                                             **LEASE_SETTINGS[setting]))
    return DifferentialRunner(cfg=cfg, protocols=PROTOCOLS, sanitize=True)


@pytest.mark.fuzz_smoke
@pytest.mark.parametrize("policy", POLICIES)
def test_litmus_corpus_passes_under_policy(policy, tmp_path):
    failing = []
    for setting in LEASE_SETTINGS:
        runner = _runner(setting)
        for path in corpus_files(CORPUS_DIR):
            program = load_program(path)
            verdict = runner.check_program(program)
            if not verdict.passed:
                stem = os.path.splitext(os.path.basename(path))[0]
                out = os.path.join(_archive_dir(tmp_path),
                                   f"{stem}_{setting}.trace")
                save_program(out, program, comments=[
                    f"lease settings: {setting}",
                    f"reasons: {'; '.join(verdict.failures)}"])
                failing.append((path, out, verdict.failures))
    assert not failing, (
        f"a lease setting of the {policy!r} predictor broke SC on the "
        "litmus corpus; reproducers archived:\n" + "\n".join(
            f"  {src} -> {out}: {'; '.join(reasons)}"
            for src, out, reasons in failing))


@pytest.mark.fuzz_smoke
@pytest.mark.parametrize("policy", POLICIES)
def test_hostile_smoke_grid_passes_under_policy(policy, tmp_path):
    result = run_hostile_campaign(
        config_name="small", regimes="all", runs=5, seed=0,
        protocols=("RCC", "RCC-WO"))
    findings = result.violations + result.errors
    archived = []
    for run in findings:
        out = os.path.join(
            _archive_dir(tmp_path),
            f"hostile_{run.regime}_{run.cell.protocol.lower()}"
            f"_{run.cell.seed % 100000:05d}.cell")
        save_cell(out, run.cell, run.config_name,
                  reason=run.record["message"])
        archived.append((run, out))
    assert not findings, (
        f"the {policy!r} predictor produced sanitizer violations/errors "
        "in the hostile smoke grid; reproducers archived:\n" + "\n".join(
            f"  {out}: {run.record['message']}" for run, out in archived))


@pytest.mark.fuzz_smoke
def test_policies_agree_on_program_results():
    """For one representative corpus program, the *memory semantics*
    (final memory and SC verdict) agree across the lease settings even
    though timing may differ."""
    program = load_program(os.path.join(CORPUS_DIR, "mp.trace"))
    verdicts, finals = {}, {}
    for setting in LEASE_SETTINGS:
        verdict = _runner(setting).check_program(program)
        verdicts[setting] = verdict.passed
        finals[setting] = {name: out.observation.final
                           for name, out in verdict.outcomes.items()}
    assert all(verdicts.values()), f"per-setting verdicts: {verdicts}"
    assert all(f == finals["predictor"] for f in finals.values()), finals
