"""Log-bucketed latency histograms.

Memory latencies in a GPU span three orders of magnitude (L1 hit ~1 cycle,
DRAM round trip ~1000), so fixed-width bins are useless; this histogram
buckets by powers of two and reports percentiles by linear interpolation
inside a bucket — cheap enough to keep one per (op kind) per run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class Histogram:
    """Power-of-two-bucketed histogram of non-negative integers."""

    def __init__(self, max_value: int = 1 << 24):
        self.max_value = max_value
        n_buckets = max_value.bit_length() + 1
        self._buckets: List[int] = [0] * n_buckets
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def _bucket_bounds(self, i: int) -> Tuple[int, int]:
        """Nominal [lo, hi] of bucket ``i`` — except the last bucket,
        which is a *saturation* bucket: both ``add`` (values clamped to
        ``max_value``) and ``merge`` (a wider histogram's overflow) can
        park samples there that exceed its power-of-two range, so its
        upper bound extends to the observed max. Without this, a merged
        histogram reports every percentile below samples its own
        min/max/mean prove it holds."""
        lo = 0 if i == 0 else 1 << (i - 1)
        hi = 0 if i == 0 else (1 << i) - 1
        if i == len(self._buckets) - 1 and self.max is not None:
            hi = max(hi, self.max)
        return lo, hi

    def add(self, value: int, count: int = 1) -> None:
        if value < 0:
            raise ValueError(f"negative sample: {value}")
        if value > self.max_value:
            value = self.max_value
        self._buckets[value.bit_length()] += count
        self.count += count
        self.total += value * count
        mn = self.min
        if mn is None or value < mn:
            self.min = value
        mx = self.max
        if mx is None or value > mx:
            self.max = value

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (0 < p <= 100)."""
        if not 0 < p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        if self.count == 0:
            return 0.0
        target = self.count * p / 100.0
        seen = 0
        for i, n in enumerate(self._buckets):
            if n == 0:
                continue
            if seen + n >= target:
                lo, hi = self._bucket_bounds(i)
                # The samples can only occupy [min, max] of the bucket's
                # nominal range; clamping keeps e.g. a single-sample
                # histogram's every percentile equal to that sample.
                if self.min is not None:
                    lo = max(lo, self.min)
                if self.max is not None:
                    hi = min(hi, self.max)
                if hi <= lo:
                    return float(lo)
                frac = (target - seen) / n
                return lo + frac * (hi - lo)
            seen += n
        return float(self.max or 0)

    def buckets(self) -> List[Tuple[int, int, int]]:
        """Non-empty buckets as (low, high, count)."""
        out = []
        for i, n in enumerate(self._buckets):
            if n:
                out.append(self._bucket_bounds(i) + (n,))
        return out

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram into this one (per-core -> global)."""
        for i, n in enumerate(other._buckets):
            # A wider histogram's overflow buckets fold into our top
            # (saturation) bucket instead of silently vanishing, so
            # count/total/percentiles stay mutually consistent.
            self._buckets[min(i, len(self._buckets) - 1)] += n
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is not None:
                self.min = bound if self.min is None else min(self.min, bound)
                self.max = bound if self.max is None else max(self.max, bound)

    def to_dict(self) -> Dict[str, object]:
        """JSON-able snapshot (inverse of :meth:`from_dict`)."""
        return {
            "max_value": self.max_value,
            "buckets": list(self._buckets),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Histogram":
        """Rebuild a histogram serialized with :meth:`to_dict`."""
        h = cls(max_value=int(data["max_value"]))
        buckets = list(data["buckets"])
        if len(buckets) != len(h._buckets):
            raise ValueError(
                f"histogram bucket count mismatch: {len(buckets)} vs "
                f"{len(h._buckets)}")
        h._buckets = [int(n) for n in buckets]
        h.count = int(data["count"])
        h.total = int(data["total"])
        h.min = None if data["min"] is None else int(data["min"])
        h.max = None if data["max"] is None else int(data["max"])
        return h

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": round(self.mean, 2),
            "p50": round(self.percentile(50), 1),
            "p90": round(self.percentile(90), 1),
            "p99": round(self.percentile(99), 1),
            "min": self.min or 0,
            "max": self.max or 0,
        }
