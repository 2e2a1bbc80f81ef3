"""Discrete-event simulation engine used by every timed component."""

from repro.timing.engine import Engine

__all__ = ["Engine"]
