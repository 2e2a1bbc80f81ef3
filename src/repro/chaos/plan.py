"""Deterministic fault plans: seeded chaos for the sweep stack.

A :class:`FaultPlan` is a seeded description of which faults to inject
where. Injection decisions are *pure functions* of
``(plan seed, site, fault kind, operation identity)`` — a sha256-based
uniform draw — so a plan makes exactly the same decisions regardless of
worker scheduling, process boundaries, or how many times the campaign is
(re)run. That determinism is what makes chaos findings replayable: the
failing plan spec is the reproducer.

Fault kinds and the boundary they fire at:

==============  =========  ====================================================
kind            site       effect
==============  =========  ====================================================
``crash``       worker     the worker process dies via ``os._exit`` (in a
                           forked child; in-process/serial execution raises
                           :class:`ChaosCrash` instead, because ``os._exit``
                           there would end the campaign itself)
``hang``        worker     the worker sleeps past any reasonable timeout
                           (``hang-s``, default 30s)
``flaky``       worker     a transient :class:`ChaosFlaky` exception on
                           attempt 1 only — retries must absorb it
``torn-write``  cache      the committed cache entry is truncated mid-JSON,
                           emulating a non-atomic write torn by a crash
``bit-flip``    cache      one byte of the committed cache entry is flipped,
                           emulating silent media corruption
``enospc``      cache      the write raises ``OSError(ENOSPC)`` — the cache
                           counts the failure and skips the entry
==============  =========  ====================================================

Spec grammar (the ``RCC_CHAOS`` environment variable)::

    spec      := clause (";" clause)*
    clause    := fault | "seed=" INT | "hang-s=" FLOAT
    fault     := kind [":" prob [":" mode]]
    kind      := "crash" | "hang" | "flaky" | "torn-write" | "bit-flip"
                 | "enospc"
    prob      := float in [0, 1]          (default 1.0)
    mode      := "first" | "always"       (default "first")

``mode=first`` fires only on a cell's first attempt (retries then
recover); ``mode=always`` fires on every attempt (the cell must surface
as a structured failure). Examples::

    RCC_CHAOS="flaky:0.5;seed=7"            # half the cells flake once
    RCC_CHAOS="crash:0.3:always;seed=1"     # 30% of cells crash forever
    RCC_CHAOS="torn-write;bit-flip:0.5"     # hostile filesystem

A :class:`~repro.exec.SweepExecutor` hands one plan, parsed from its
settings, to its worker wrapper (pickled into forked workers with each
cell) and its cache; with no plan every hook is skipped.
"""

from __future__ import annotations

import errno
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ReproError

#: Exit code of a worker process the ``crash`` fault kills.
CHAOS_EXIT_CODE = 86

FAULT_KINDS = ("crash", "hang", "flaky", "torn-write", "bit-flip", "enospc")

_WORKER_KINDS = ("crash", "hang", "flaky")
_MODES = ("first", "always")


class ChaosError(ReproError):
    """Base class for injected chaos faults."""


class ChaosCrash(ChaosError):
    """The ``crash`` fault fired in-process (serial mode), where killing
    the interpreter would take the whole campaign down; classified under
    the ``crash`` taxonomy like a real worker death."""


class ChaosFlaky(ChaosError):
    """The ``flaky`` fault: a transient failure on a cell's first
    attempt. Bounded retries must absorb it without surfacing."""


@dataclass(frozen=True)
class FaultSpec:
    kind: str
    prob: float = 1.0
    mode: str = "first"


class FaultPlan:
    """A parsed, seeded chaos specification. See the module docstring."""

    def __init__(self, faults: Dict[str, FaultSpec], seed: int = 0,
                 hang_s: float = 30.0, spec: str = ""):
        self.faults = dict(faults)
        self.seed = seed
        self.hang_s = hang_s
        self.spec = spec
        #: The campaign process, so the ``crash`` fault can tell a forked
        #: worker (safe to ``os._exit``) from the campaign itself (raise
        #: :class:`ChaosCrash` instead).
        self.parent_pid = os.getpid()

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        faults: Dict[str, FaultSpec] = {}
        seed = 0
        hang_s = 30.0
        for raw in spec.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            if "=" in clause:
                key, _, val = clause.partition("=")
                key = key.strip()
                try:
                    if key == "seed":
                        seed = int(val)
                    elif key == "hang-s":
                        hang_s = float(val)
                    else:
                        raise ChaosError(
                            f"unknown chaos directive {key!r} in {spec!r}")
                except ValueError:
                    raise ChaosError(
                        f"bad value for chaos directive {clause!r}") from None
                continue
            parts = clause.split(":")
            kind = parts[0].strip()
            if kind not in FAULT_KINDS:
                raise ChaosError(
                    f"unknown chaos fault {kind!r} in {spec!r} "
                    f"(choose from {', '.join(FAULT_KINDS)})")
            prob = 1.0
            mode = "first"
            try:
                if len(parts) > 1 and parts[1].strip():
                    prob = float(parts[1])
                if len(parts) > 2 and parts[2].strip():
                    mode = parts[2].strip()
            except ValueError:
                raise ChaosError(
                    f"bad probability in chaos clause {clause!r}") from None
            if not 0.0 <= prob <= 1.0:
                raise ChaosError(
                    f"chaos probability must be in [0, 1]: {clause!r}")
            if mode not in _MODES:
                raise ChaosError(
                    f"chaos mode must be one of {_MODES}: {clause!r}")
            faults[kind] = FaultSpec(kind=kind, prob=prob, mode=mode)
        return cls(faults, seed=seed, hang_s=hang_s, spec=spec)

    # ------------------------------------------------------------------
    def _draw(self, *parts) -> float:
        """Uniform [0,1) draw, a pure function of (seed, *parts)."""
        digest = hashlib.sha256(
            repr((self.seed,) + parts).encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def decide(self, site: str, kind: str, identity: str,
               attempt: int = 1) -> bool:
        """Should fault ``kind`` fire at ``site`` for this operation?

        Deterministic in ``(seed, site, kind, identity)``; ``attempt``
        only gates ``mode=first`` faults (fire on attempt 1, spare the
        retries).
        """
        fault = self.faults.get(kind)
        if fault is None or fault.prob <= 0.0:
            return False
        if fault.mode == "first" and attempt > 1:
            return False
        return self._draw(site, kind, identity) < fault.prob

    # ------------------------------------------------------------------
    # Worker-boundary faults
    # ------------------------------------------------------------------
    def fire_worker(self, identity: str, attempt: int = 1) -> None:
        """Run the worker-site faults for one cell evaluation. Called at
        the top of the executor's worker wrapper, in whatever process is
        about to evaluate the cell."""
        if self.decide("worker", "crash", identity, attempt):
            if os.getpid() != self.parent_pid:
                os._exit(CHAOS_EXIT_CODE)
            raise ChaosCrash(
                f"chaos: injected worker crash for {identity!r} "
                f"(attempt {attempt}, in-process)")
        if self.decide("worker", "hang", identity, attempt):
            time.sleep(self.hang_s)
        if self.decide("worker", "flaky", identity, attempt):
            raise ChaosFlaky(
                f"chaos: injected transient fault for {identity!r} "
                f"(attempt {attempt})")

    # ------------------------------------------------------------------
    # Cache-boundary faults
    # ------------------------------------------------------------------
    def check_write(self, identity: str) -> None:
        """Raise ``OSError(ENOSPC)`` when the ``enospc`` fault fires for
        this cache write."""
        if self.decide("cache", "enospc", identity):
            raise OSError(errno.ENOSPC,
                          f"chaos: injected ENOSPC on cache write "
                          f"for {identity!r}")

    def corrupt_bytes(self, identity: str,
                      data: bytes) -> Tuple[bytes, Optional[str]]:
        """Apply cache-corruption faults to an entry about to be
        committed; returns ``(possibly damaged bytes, fault kind or
        None)``."""
        if self.decide("cache", "torn-write", identity):
            return data[:max(1, len(data) // 2)], "torn-write"
        if self.decide("cache", "bit-flip", identity):
            # Flip one bit of one byte in the payload's middle —
            # deterministically chosen, never the first/last byte (those
            # would break the JSON envelope and be caught trivially).
            if len(data) > 2:
                pos = 1 + int(self._draw("cache", "bit-flip-pos", identity)
                              * (len(data) - 2))
                flipped = data[pos] ^ (1 << 4)
                data = data[:pos] + bytes([flipped]) + data[pos + 1:]
            return data, "bit-flip"
        return data, None

    # ------------------------------------------------------------------
    def describe(self) -> str:
        parts = [f"{f.kind}:{f.prob:g}:{f.mode}"
                 for f in self.faults.values()]
        parts.append(f"seed={self.seed}")
        return ";".join(parts)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FaultPlan {self.describe()}>"

