"""Measurement utilities: the log2-bucketed latency histogram every
result carries."""

from repro.stats.histogram import Histogram

__all__ = ["Histogram"]
