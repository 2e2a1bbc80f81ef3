"""Discrete-event simulation engine used by every timed component."""

from repro.timing.engine import Engine, Event

__all__ = ["Engine", "Event"]
