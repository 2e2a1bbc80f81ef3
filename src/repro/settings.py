"""Run settings: the four ``RCC_*`` environment variables, read once.

Whether a sweep runs in parallel, sanitized or cached is decided by one
frozen :class:`Settings`. Each command-line entry point builds it once
(:func:`cli_settings`: :meth:`Settings.from_env` with its flags laid over
it) and hands it to :class:`~repro.exec.SweepExecutor`; below the
executor every setting is a plain argument. Nothing else in the package
reads the environment, and nothing writes it. README.md tables each
variable with its flag and default.

Any other ``RCC_*`` name, or a value that does not parse, raises
:class:`SettingsError`: a typo must fail loudly, not fall back to a
default. No setting changes a simulation's result, so none of them enters
:func:`~repro.exec.cells.cell_key`.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.errors import ReproError

#: The settable variables, in the order error messages list them.
ENV_VARS = ("RCC_JOBS", "RCC_CACHE_DIR", "RCC_SANITIZE", "RCC_TRACE_OUT")

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("", "0", "false", "no", "off")


class SettingsError(ReproError):
    """An ``RCC_*`` variable that is unknown or does not parse."""

    def __init__(self, problem: str):
        super().__init__(f"{problem} (known: {', '.join(ENV_VARS)})")


@dataclass(frozen=True)
class Settings:
    """How a sweep runs; none of it changes what a cell computes."""

    #: Worker processes for independent cells; 1 runs serially in-process.
    jobs: int = 1
    #: Result-cache directory; None means the default ``.rcc-cache``.
    cache_dir: Optional[str] = None
    #: Run every cell with the coherence-invariant sanitizer attached.
    sanitize: bool = False
    #: With ``sanitize``: where to dump the last events on a violation.
    trace_out: Optional[str] = None

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None
                 ) -> "Settings":
        """Parse the ``RCC_*`` variables of ``environ`` (default: this
        process's environment); raises :class:`SettingsError` on an
        unknown name or a malformed value."""
        env = os.environ if environ is None else environ
        for name in sorted(env):
            if name.startswith("RCC_") and name not in ENV_VARS:
                raise SettingsError(f"unknown environment variable {name}")
        raw_jobs = env.get("RCC_JOBS", "").strip() or "1"
        jobs = int(raw_jobs) if raw_jobs.isascii() and raw_jobs.isdigit() \
            else 0
        if jobs < 1:
            raise SettingsError(
                f"RCC_JOBS={raw_jobs!r} is not a positive integer")
        raw_sanitize = env.get("RCC_SANITIZE", "").strip().lower()
        if raw_sanitize not in _TRUE + _FALSE:
            raise SettingsError(
                f"RCC_SANITIZE={raw_sanitize!r} is not one of "
                f"{', '.join(_TRUE + _FALSE[1:])}")
        return cls(jobs=jobs,
                   cache_dir=env.get("RCC_CACHE_DIR") or None,
                   sanitize=raw_sanitize in _TRUE,
                   trace_out=env.get("RCC_TRACE_OUT") or None)


def cli_parent() -> argparse.ArgumentParser:
    """The sweep flags every CLI shares; use as ``parents=[cli_parent()]``."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for independent simulation "
                        "cells (default: RCC_JOBS or 1 = serial)")
    return p


def cli_settings(parser: argparse.ArgumentParser, args: argparse.Namespace,
                 **flags: Any) -> Settings:
    """:meth:`Settings.from_env` with ``--jobs`` and the given flags laid
    over it (a flag left at None keeps the environment's value). A bad
    ``RCC_*`` variable exits 2 with one line on stderr."""
    try:
        settings = Settings.from_env()
    except SettingsError as exc:
        parser.exit(2, f"{parser.prog}: {exc}\n")
    flags["jobs"] = args.jobs
    return dataclasses.replace(
        settings, **{k: v for k, v in flags.items() if v is not None})
