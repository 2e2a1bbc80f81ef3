"""Regression corpus: shrunk reproducers saved as replayable trace files.

Corpus files use the repository's existing ``repro-trace v1`` text format
(:mod:`repro.workloads.tracefile`), with extra ``#`` comment headers for
provenance, so any corpus entry can also be fed straight into the
simulator as a workload. Loading reverses the lowering: distinct blocks
become address slots again (ascending address order), giving back a
symbolic :class:`~repro.fuzz.generator.FuzzProgram` the shrinker and
oracle can work with.

``tests/corpus/`` holds the checked-in regression set; every file in it
is replayed under all registered protocols on every test run.
"""

from __future__ import annotations

import io
import os
from typing import Iterable, List, Optional, Tuple

from repro.gpu.trace import WarpTrace
from repro.fuzz.generator import FuzzProgram
from repro.workloads.tracefile import MAGIC, load_traces, save_traces


def program_to_text(program: FuzzProgram, block_bytes: int = 128,
                    comments: Optional[Iterable[str]] = None) -> str:
    """Serialize ``program`` to repro-trace text with provenance headers."""
    traces: List[List[WarpTrace]] = [
        [WarpTrace(c, w) for w in range(max(1, program.warps_per_core))]
        for c in range(max(1, program.n_cores))
    ]
    for (core, warp), ops in program.warps.items():
        traces[core][warp].extend(
            program._lower_op(op, block_bytes) for op in ops)
    buf = io.StringIO()
    save_traces(buf, traces)
    body = buf.getvalue()
    assert body.startswith(MAGIC)
    header = [MAGIC, f"# fuzz program: {program.name}"]
    if program.seed is not None:
        header.append(f"# seed: {program.seed}")
    header.append(f"# addrs: {program.n_addrs}  ops: {program.n_ops}")
    for line in comments or ():
        header.append(f"# {line}")
    return "\n".join(header) + "\n" + body[len(MAGIC) + 1:]


def program_from_text(text: str, block_bytes: int = 128,
                      name: str = "replay") -> FuzzProgram:
    traces = load_traces(io.StringIO(text))
    program = FuzzProgram.from_traces(traces, block_bytes=block_bytes,
                                      name=name)
    for line in text.splitlines():
        if line.startswith("# seed:"):
            try:
                program.seed = int(line.split(":", 1)[1].strip())
            except ValueError:
                pass
    return program


def save_program(path: str, program: FuzzProgram, block_bytes: int = 128,
                 comments: Optional[Iterable[str]] = None) -> None:
    with open(path, "w") as f:
        f.write(program_to_text(program, block_bytes, comments))


def load_program(path: str, block_bytes: int = 128) -> FuzzProgram:
    name = os.path.splitext(os.path.basename(path))[0]
    with open(path) as f:
        return program_from_text(f.read(), block_bytes=block_bytes,
                                 name=name)


def corpus_files(directory: str) -> List[str]:
    """All corpus entries (``*.trace``) in ``directory``, sorted."""
    return sorted(
        os.path.join(directory, fn) for fn in os.listdir(directory)
        if fn.endswith(".trace"))


def load_corpus(directory: str,
                block_bytes: int = 128) -> List[Tuple[str, FuzzProgram]]:
    """Load every corpus entry; returns (filename, program) pairs."""
    return [(os.path.basename(p), load_program(p, block_bytes))
            for p in corpus_files(directory)]
