"""Tests for the latency histogram."""

import pytest

from repro.stats.histogram import Histogram


class TestHistogram:
    def test_mean_and_count(self):
        h = Histogram()
        for v in (1, 2, 3, 4):
            h.add(v)
        assert h.count == 4
        assert h.mean == 2.5
        assert h.min == 1 and h.max == 4

    def test_percentiles_monotone(self):
        h = Histogram()
        for v in range(1, 1001):
            h.add(v)
        p50 = h.percentile(50)
        p90 = h.percentile(90)
        p99 = h.percentile(99)
        assert p50 <= p90 <= p99
        assert 200 <= p50 <= 800  # log-bucket approximation is coarse

    def test_zero_bucket(self):
        h = Histogram()
        h.add(0, count=5)
        assert h.buckets() == [(0, 0, 5)]
        assert h.percentile(99) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Histogram().add(-1)

    def test_saturates_at_max(self):
        h = Histogram(max_value=1 << 10)
        h.add(10**9)
        assert h.max == 1 << 10

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.add(4)
        b.add(400, count=3)
        a.merge(b)
        assert a.count == 4
        assert a.max == 400
        assert a.total == 4 + 1200

    def test_summary_keys(self):
        h = Histogram()
        h.add(7)
        assert set(h.summary()) == {"count", "mean", "p50", "p90", "p99",
                                    "min", "max"}

    def test_empty_percentile(self):
        assert Histogram().percentile(50) == 0.0

    def test_bad_percentile(self):
        with pytest.raises(ValueError):
            Histogram().percentile(0)

    def test_single_sample_percentiles_exact(self):
        # One sample occupies one bucket; interpolating over the bucket's
        # nominal [lo, hi) used to report values the histogram never saw.
        h = Histogram()
        h.add(5)
        for p in (1, 50, 90, 99, 100):
            assert h.percentile(p) == 5.0

    def test_percentile_clamped_to_observed_range(self):
        h = Histogram()
        h.add(9, count=2)  # bucket [8, 15], samples only at 9
        assert h.percentile(50) == 9.0
        assert h.percentile(99) == 9.0

    def test_merge_wider_histogram_folds_overflow(self):
        a = Histogram(max_value=1 << 4)
        b = Histogram(max_value=1 << 10)
        b.add(1000, count=3)
        a.merge(b)
        # The wider histogram's overflow buckets fold into a's saturation
        # bucket instead of silently vanishing.
        assert a.count == 3
        assert sum(a._buckets) == 3
        assert a.percentile(99) > 0

    def test_merged_overflow_percentiles_reach_observed_max(self):
        # Folded overflow lives in the saturation bucket, whose nominal
        # power-of-two range tops out far below the folded samples; the
        # bucket's effective upper bound must extend to the observed max
        # or percentiles contradict min/max/mean.
        a = Histogram(max_value=1 << 4)
        a.add(12)
        b = Histogram(max_value=1 << 10)
        b.add(1000, count=3)
        a.merge(b)
        assert a.max == 1000
        # 3 of 4 samples are 1000: p99 must land well above the
        # saturation bucket's nominal top (31), at most at max.
        assert 500 < a.percentile(99) <= 1000
        assert a.percentile(50) >= 12
        # buckets() reports the same extended bound.
        lo, hi, n = a.buckets()[-1]
        assert hi == 1000 and n == 3

    def test_merged_overflow_all_mass_in_saturation_bucket(self):
        # Degenerate: *every* sample folds into the saturation bucket.
        a = Histogram(max_value=1 << 4)
        b = Histogram(max_value=1 << 10)
        b.add(600, count=4)
        a.merge(b)
        assert a.min == a.max == 600
        # Single-valued histogram: every percentile is that value.
        assert a.percentile(50) == 600.0
        assert a.percentile(99) == 600.0

    def test_single_bucket_histogram_merge(self):
        # max_value=0 gives a one-bucket histogram; merging wider data
        # must keep percentiles within [min, max], not pinned to 0.
        c = Histogram(max_value=0)
        c.add(0)
        d = Histogram(max_value=1 << 6)
        d.add(40, count=5)
        c.merge(d)
        assert c.count == 6
        assert 0 <= c.percentile(50) <= 40
        assert c.percentile(99) <= 40
        assert c.buckets() == [(0, 40, 6)]

    def test_unmerged_histogram_bounds_unchanged(self):
        # The saturation-bucket extension must not disturb ordinary
        # histograms: samples within max_value keep nominal bounds.
        h = Histogram(max_value=1 << 10)
        h.add(3)
        h.add(700)
        assert h.buckets()[0] == (2, 3, 1)
        assert h.buckets()[-1] == (512, 1023, 1)
        assert h.percentile(99) <= 700
