"""Run settings (:mod:`repro.settings`): the four ``RCC_*`` variables are
parsed once, strictly, and reach the workers only as arguments.

Covers the parser (defaults, every accepted value, every rejection), the
two CLIs' one-line exit-2 error on bad input, the flags overriding the
environment, the sanitizer reaching every cell of a default-settings
executor, and a source scan that keeps the environment boundary where it
is.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import pathlib
import re

import pytest

from repro.config import GPUConfig
from repro.exec import SimCell, SweepExecutor
from repro.fuzz import cli as fuzz_cli
from repro.fuzz.workloads import run_hostile_campaign
from repro.harness import runner as runner_cli
from repro.sanitize.sanitizer import Sanitizer
from repro.settings import (ENV_VARS, Settings, SettingsError, cli_parent,
                            cli_settings)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


class TestFromEnv:
    def test_defaults(self):
        assert Settings.from_env({}) == Settings()
        assert Settings() == Settings(jobs=1, cache_dir=None, sanitize=False,
                                      trace_out=None)
        assert [f.name for f in dataclasses.fields(Settings)] == [
            "jobs", "cache_dir", "sanitize", "trace_out"]

    def test_every_known_variable(self):
        env = {"RCC_JOBS": "3", "RCC_CACHE_DIR": "/tmp/c",
               "RCC_SANITIZE": "yes", "RCC_TRACE_OUT": "t.jsonl",
               "PATH": "/bin"}
        assert Settings.from_env(env) == Settings(
            jobs=3, cache_dir="/tmp/c", sanitize=True, trace_out="t.jsonl")

    def test_empty_values_mean_default(self):
        env = {name: "" for name in ENV_VARS}
        assert Settings.from_env(env) == Settings()

    def test_executor_defaults_to_the_environment(self, monkeypatch):
        monkeypatch.setenv("RCC_JOBS", "3")
        assert SweepExecutor().settings.jobs == 3
        monkeypatch.setenv("RCC_JOBZ", "3")
        with pytest.raises(SettingsError, match="RCC_JOBZ"):
            SweepExecutor()


# ----------------------------------------------------------------------
# The CLIs
# ----------------------------------------------------------------------

#: Each CLI with arguments that would do real (quick) work, so an exit
#: before any output shows the environment was checked at entry.
CLIS = {
    "rcc-repro": (runner_cli.main, ["table1", "--quick", "--no-cache"]),
    "repro-fuzz": (fuzz_cli.main, ["--programs", "1"]),
}

#: The retired switches (``RCC_CHAOS`` with a spec it once accepted, and
#: two it refused), typos, and values that do not parse.
BAD_ENV = [
    ("RCC_JOBS", "two"),
    ("RCC_JOBS", "0"),
    ("RCC_JOBS", "\u00b2"),
    ("RCC_JOBZ", "2"),
    ("RCC_FLAT_KERNEL", "0"),
    ("RCC_MAX_ATTEMPTS", "junk"),
    ("RCC_NO_MP", "1"),
    ("RCC_CACHE_MAX_ENTRIES", "2"),
    ("RCC_CACHE_MAX_BYTES", "0"),
    ("RCC_JOURNAL_DIR", "journals"),
    ("RCC_CHAOS_PARENT_PID", "1"),
    ("RCC_CHAOS", "flaky:0.5;seed=7"),
    ("RCC_CHAOS", "bogus;seed=1"),
    ("RCC_CHAOS", "flaky:2.0"),
    ("RCC_SANITIZE", "maybe"),
]


@pytest.mark.parametrize("name, value", BAD_ENV,
                         ids=[f"{n}={v}" for n, v in BAD_ENV])
@pytest.mark.parametrize("prog", sorted(CLIS))
def test_every_cli_rejects_bad_env(prog, name, value, monkeypatch, capsys):
    main, argv = CLIS[prog]
    monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"{prog}: ") and name in line
    assert all(known in line for known in ENV_VARS)


#: Flags of the retired campaign journal and chaos layer: argparse must
#: refuse them rather than ignore them.
RETIRED_FLAGS = [
    ("rcc-repro", ["table1", "--journal-dir", "d"]),
    ("repro-fuzz", ["--resume", "f"]),
    ("repro-fuzz", ["--chaos"]),
]


@pytest.mark.parametrize("prog, argv", RETIRED_FLAGS,
                         ids=[" ".join(argv) for _, argv in RETIRED_FLAGS])
def test_retired_flags_exit_2(prog, argv, capsys):
    main, _ = CLIS[prog]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_flags_override_the_environment(monkeypatch):
    monkeypatch.setenv("RCC_JOBS", "3")
    monkeypatch.setenv("RCC_SANITIZE", "1")
    parser = argparse.ArgumentParser(parents=[cli_parent()])
    parser.add_argument("--sanitize", action="store_true", default=None)
    args = parser.parse_args(["--jobs", "2"])
    settings = cli_settings(parser, args, sanitize=args.sanitize)
    assert settings.jobs == 2 and settings.sanitize
    args = parser.parse_args([])
    assert cli_settings(parser, args).jobs == 3


def test_shared_flags_declared_once():
    """``--jobs`` comes from the one parent parser in every CLI."""
    for path in ("harness/runner.py", "fuzz/cli.py"):
        text = (SRC / path).read_text()
        assert "parents=[cli_parent()]" in text, path
        assert '"--jobs"' not in text, path


# ----------------------------------------------------------------------
# Settings reach every cell
# ----------------------------------------------------------------------

def test_sanitize_reaches_every_default_executor_cell(monkeypatch):
    """With ``RCC_SANITIZE=1``, every cell a default-settings executor
    runs — through ``run_cells`` and the hostile campaign — has a
    sanitizer attached."""
    monkeypatch.setenv("RCC_SANITIZE", "1")
    monkeypatch.delenv("RCC_JOBS", raising=False)  # serial: spy in-process
    attached = []

    class Spy(Sanitizer):
        def __init__(self, protocol, cfg, **kwargs):
            super().__init__(protocol, cfg, **kwargs)
            attached.append(protocol)

    monkeypatch.setattr("repro.sim.gpusim.Sanitizer", Spy)
    cfg = GPUConfig.small()
    cells = [SimCell(cfg=cfg, protocol=p, workload="bfs", intensity=0.05)
             for p in ("RCC", "MESI")]
    SweepExecutor().run_cells(cells)
    assert attached == ["RCC", "MESI"]

    del attached[:]
    result = run_hostile_campaign(
        config_name="small", regimes="storm", runs=2, seed=0,
        protocols=("RCC",))
    assert len(result.runs) == 2
    assert attached == ["RCC", "RCC"]


# ----------------------------------------------------------------------
# The environment boundary
# ----------------------------------------------------------------------

_ENV_USE = re.compile(r"os\.environ|os\.getenv")
_ENV_WRITE = re.compile(
    r"os\.environ\s*\[[^\]]*\]\s*=(?!=)|os\.environ\.(update|pop|setdefault"
    r"|clear|popitem)\b|del\s+os\.environ|os\.(putenv|unsetenv)\b")
_CORE_LAYERS = ("sim", "gpu", "core", "coherence", "mem", "noc", "timing",
                "sanitize")


def test_environment_boundary():
    settings = SRC / "settings.py"
    readers, writers, core_imports = [], [], []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        lines = path.read_text().splitlines()
        for no, line in enumerate(lines, 1):
            if _ENV_USE.search(line) and path != settings:
                readers.append(f"{rel}:{no}")
            if _ENV_WRITE.search(line):
                writers.append(f"{rel}:{no}")
        if rel.parts[0] in _CORE_LAYERS:
            for node in ast.walk(ast.parse("\n".join(lines))):
                names = ([a.name for a in node.names]
                         if isinstance(node, ast.Import) else
                         [f"{node.module}.{a.name}" for a in node.names]
                         if isinstance(node, ast.ImportFrom) else [])
                if any(n.startswith("repro.settings") for n in names):
                    core_imports.append(f"{rel}:{node.lineno}")
    assert readers == [], "environment read outside repro/settings.py"
    assert writers == [], "something writes os.environ"
    assert core_imports == [], "a simulator layer imports repro.settings"
