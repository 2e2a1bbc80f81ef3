"""Experiment harness: one entry per paper table/figure.

Each ``fig*``/``table*`` function runs the required simulations and returns
an :class:`~repro.harness.experiments.ExperimentResult` whose rows mirror
what the paper plots and whose claims carry their verdicts: each shape the
paper reports is checked against the measured numbers.
``repro.harness.runner`` provides the CLI (``rcc-repro <experiment>``),
which exits 1 when a claim breaks.
"""

from repro.harness.experiments import (
    ExperimentResult,
    Harness,
    ALL_EXPERIMENTS,
)

__all__ = ["ALL_EXPERIMENTS", "ExperimentResult", "Harness"]
