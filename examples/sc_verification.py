#!/usr/bin/env python3
"""Demonstrate sequential consistency — and its absence — with litmus tests.

Runs the message-passing (MP) litmus shape from the test corpus through the
full simulator under every protocol at a range of staggers, asks the SC
interleaving oracle whether each outcome is SC, then verifies a random
program's execution with the SC witness checker. The weakly ordered
protocols (TCW, RCC-WO) run the fully fenced variant. MP needs no write
atomicity, so fences make it SC even under TC-weak; IRIW does need it,
and TC-weak gives it up — the paper's reason TCW cannot implement SC
(Table I).

    python examples/sc_verification.py
"""

import os
import random

from repro import GPUConfig, run_simulation
from repro.config import consistency_of
from repro.consistency.checker import SCChecker
from repro.fuzz import ProtocolExecutor, load_program, sc_explainable
from repro.gpu.trace import WarpTrace, compute_op, load_op, store_op

MP_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "tests", "corpus", "mp.trace")


def litmus_sweep() -> None:
    cfg = GPUConfig.small()
    mp = load_program(MP_TRACE)
    print("MP litmus (C0: data=1; flag=1 | C1: r1=flag; r2=data)")
    print("forbidden outcome: r1=1, r2=0 (saw the flag but stale data)\n")
    for protocol in ("MESI", "TCS", "RCC", "TCW", "RCC-WO"):
        fenced = consistency_of(protocol) == "wo"
        executor = ProtocolExecutor(protocol, cfg)
        clean = True
        for stagger in range(0, 300, 23):
            program = mp.staggered(stagger, fenced)
            out = executor.execute(program)
            assert out.error is None, out.error
            clean &= sc_explainable(program, out.observation)
        label = protocol + (" (fenced)" if fenced else "")
        print(f"  {label:16s}: "
              f"{'SC-clean' if clean else 'NOT SC-EXPLAINABLE'}")
        assert clean, f"{label} produced a non-SC MP outcome"


def checker_demo() -> None:
    print("\nSC witness checking a random 3-core program under RCC:")
    cfg = GPUConfig.small().replace(n_cores=3, warps_per_core=2)
    rng = random.Random(42)
    traces = []
    for c in range(cfg.n_cores):
        core = []
        for w in range(cfg.warps_per_core):
            t = WarpTrace(c, w)
            for _ in range(25):
                addr = rng.randrange(8) * 128
                roll = rng.random()
                if roll < 0.5:
                    t.append(load_op(addr))
                elif roll < 0.85:
                    t.append(store_op(addr))
                else:
                    t.append(compute_op(rng.randrange(1, 30)))
            core.append(t)
        traces.append(core)
    res = run_simulation(cfg, "RCC", traces, "random", record_ops=True)
    violations = SCChecker().check(res.op_logs)
    print(f"  {res.mem_ops} memory ops executed, "
          f"{len(violations)} SC violations found")
    assert not violations
    print("  every read observed the latest same-address write in the")
    print("  logical-time witness order -> the execution is SC.")


if __name__ == "__main__":
    litmus_sweep()
    checker_demo()
