"""Cross-policy differential battery: every policy, same correctness.

A lease policy only tunes *performance* — how long leases run, how often
copies renew. Sequential consistency must be untouched: whatever policy
the L2 runs, every litmus program stays SC-explainable and every hostile
campaign stays violation-free under the sanitizer. This battery sweeps
all registered policies through

* the checked-in litmus corpus (``tests/corpus/*.trace``) with the
  differential runner — RCC and RCC-WO execute under the policy with the
  sanitizer armed, and each observation is cross-checked against the SC
  interleaving oracle; any divergence fails; and
* a small hostile-lab smoke grid (one unmutated center point per regime)
  with the policy pinned campaign-wide.

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
from repro.core.lease_policy import available_lease_policies
from repro.fuzz.cellfile import save_cell
from repro.fuzz.corpus import corpus_files, load_program, save_program
from repro.fuzz.differential import DifferentialRunner
from repro.fuzz.workloads import run_hostile_campaign

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

POLICIES = available_lease_policies()

#: Only the RCC variants consult the lease policy; the SC oracle supplies
#: the policy-independent ground truth each observation is checked against.
PROTOCOLS = ["RCC", "RCC-WO"]


def _archive_dir(tmp_path) -> str:
    path = os.environ.get("REPRO_FUZZ_ARCHIVE") or str(tmp_path / "findings")
    os.makedirs(path, exist_ok=True)
    return path


@pytest.mark.fuzz_smoke
@pytest.mark.parametrize("policy", POLICIES)
def test_litmus_corpus_passes_under_policy(policy, tmp_path):
    cfg = named_config("small")
    cfg = cfg.replace(ts=dataclasses.replace(cfg.ts, lease_policy=policy))
    runner = DifferentialRunner(cfg=cfg, protocols=PROTOCOLS, sanitize=True)
    failing = []
    for path in corpus_files(CORPUS_DIR):
        program = load_program(path)
        verdict = runner.check_program(program)
        if not verdict.passed:
            stem = os.path.splitext(os.path.basename(path))[0]
            out = os.path.join(_archive_dir(tmp_path),
                               f"{stem}_{policy}.trace")
            save_program(out, program, comments=[
                f"lease_policy: {policy}",
                f"reasons: {'; '.join(verdict.failures)}"])
            failing.append((path, out, verdict.failures))
    assert not failing, (
        f"lease policy {policy!r} broke SC on the litmus corpus; "
        "reproducers archived:\n" + "\n".join(
            f"  {src} -> {out}: {'; '.join(reasons)}"
            for src, out, reasons in failing))


@pytest.mark.fuzz_smoke
@pytest.mark.parametrize("policy", POLICIES)
def test_hostile_smoke_grid_passes_under_policy(policy, tmp_path):
    result = run_hostile_campaign(
        config_name="small", regimes="all", runs=5, seed=0,
        protocols=("RCC", "RCC-WO"), lease_policy=policy)
    assert all(run.cell.lease_policy == policy for run in result.runs)
    findings = result.violations + result.errors
    archived = []
    for run in findings:
        out = os.path.join(
            _archive_dir(tmp_path),
            f"hostile_{run.regime}_{run.cell.protocol.lower()}"
            f"_{policy}_{run.cell.seed % 100000:05d}.cell")
        save_cell(out, run.cell, run.config_name,
                  reason=f"[{policy}] {run.record['message']}")
        archived.append((run, out))
    assert not findings, (
        f"lease policy {policy!r} produced sanitizer violations/errors in "
        "the hostile smoke grid; reproducers archived:\n" + "\n".join(
            f"  {out}: {run.record['message']}" for run, out in archived))


@pytest.mark.fuzz_smoke
def test_policies_agree_on_program_results():
    """Cross-policy differential: for one representative corpus program,
    the *memory semantics* (mem_ops and final SC verdict) agree across
    policies even though timing may differ."""
    cfg = named_config("small")
    program = load_program(os.path.join(CORPUS_DIR, "mp.trace"))
    verdicts = {}
    for policy in POLICIES:
        pcfg = cfg.replace(
            ts=dataclasses.replace(cfg.ts, lease_policy=policy))
        runner = DifferentialRunner(cfg=pcfg, protocols=PROTOCOLS,
                                    sanitize=True)
        verdicts[policy] = runner.check_program(program).passed
    assert all(verdicts.values()), f"per-policy verdicts: {verdicts}"
