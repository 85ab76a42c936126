"""Unit tests for `repro.service.metrics`: percentiles and consistency.

Pins the stats-correctness fixes: the ``percentiles`` block, the mean
derived from the *rounded* total the snapshot publishes (so a scraper
recomputing ``total / requests`` agrees exactly), and the negative-
elapsed clamp with its ``clock_skew`` counter.
"""

import json

import pytest

from repro.service.daemon import ServiceState
from repro.service.metrics import (
    LATENCY_BUCKETS_MS,
    ServiceMetrics,
    bucket_percentiles,
)


class TestBucketPercentiles:
    def test_empty_histogram_is_all_zero(self):
        counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        assert bucket_percentiles(counts) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_single_bucket_interpolates_within_bounds(self):
        counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        counts[LATENCY_BUCKETS_MS.index(5.0)] = 100  # all in (2.5, 5] ms
        result = bucket_percentiles(counts, max_value=5.0)
        for value in result.values():
            assert 2.5 <= value <= 5.0
        assert result["p50"] < result["p95"] <= result["p99"]

    def test_estimates_never_exceed_observed_max(self):
        counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        counts[LATENCY_BUCKETS_MS.index(10.0)] = 10  # (5, 10], true max 6.2
        result = bucket_percentiles(counts, max_value=6.2)
        assert all(value <= 6.2 for value in result.values())

    def test_unbounded_tail_closed_at_max(self):
        counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        counts[-1] = 4  # everything beyond the last bound
        result = bucket_percentiles(counts, max_value=20000.0)
        assert all(
            LATENCY_BUCKETS_MS[-1] <= value <= 20000.0
            for value in result.values()
        )

    def test_zero_max_pins_all_estimates_to_zero(self):
        # Every observation was 0 ms: interpolating inside [0, 1] must
        # not invent latency above the observed maximum of 0.
        counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        counts[0] = 7
        result = bucket_percentiles(counts, max_value=0.0)
        assert result == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_split_histogram_orders_percentiles(self):
        counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        counts[0] = 90   # fast path <= 0.01 ms
        counts[LATENCY_BUCKETS_MS.index(50.0)] = 10   # slow tail (25, 50]
        result = bucket_percentiles(counts, max_value=42.0)
        assert result["p50"] <= 1.0
        assert result["p95"] > 25.0
        assert result["p50"] <= result["p95"] <= result["p99"] <= 42.0


#: The bucket bounds before the 1-2.5-5 series.  Each is still a bound,
#: so a reader that picks a bucket by its bound still finds it.
EARLIER_BOUNDS_MS = (
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


class TestBuckets:
    def test_earlier_bounds_are_still_bounds(self):
        assert set(EARLIER_BOUNDS_MS) <= set(LATENCY_BUCKETS_MS)

    @pytest.mark.parametrize("index", range(len(LATENCY_BUCKETS_MS) + 1))
    def test_each_bucket_holds_its_own_interval(self, index):
        """Bucket ``index`` holds (previous bound, its bound]: a latency on
        its bound counts in it and so does one just above the previous
        bound, and the percentiles of what it holds stay inside it."""
        lower = LATENCY_BUCKETS_MS[index - 1] if index else 0.0
        if index < len(LATENCY_BUCKETS_MS):
            upper = LATENCY_BUCKETS_MS[index]
        else:
            upper = 2 * lower  # the unbounded tail, closed at the max seen
        inside = [upper] + ([lower * 1.001] if lower else [])
        metrics = ServiceMetrics()
        for latency_ms in inside:
            metrics.observe("POST /check", 200, latency_ms / 1000.0)
        latency = metrics.snapshot()["endpoints"]["POST /check"]["latency_ms"]
        assert latency["counts"][index] == len(inside)
        assert sum(latency["counts"]) == len(inside)
        for value in latency["percentiles"].values():
            assert lower <= value <= upper


class TestSnapshotConsistency:
    def test_mean_recomputable_from_published_total(self):
        metrics = ServiceMetrics()
        # Durations chosen so the unrounded sum has excess precision.
        for elapsed in (0.0011117, 0.0032229, 0.0054443):
            metrics.observe("POST /satisfiable", 200, elapsed)
        snap = metrics.snapshot()["endpoints"]["POST /satisfiable"]
        latency = snap["latency_ms"]
        assert latency["mean"] == round(
            latency["total"] / snap["requests"], 3
        )

    def test_percentiles_block_present_and_bounded(self):
        metrics = ServiceMetrics()
        for elapsed in (0.001, 0.002, 0.020, 0.200):
            metrics.observe("POST /infer", 200, elapsed)
        latency = metrics.snapshot()["endpoints"]["POST /infer"]["latency_ms"]
        pcts = latency["percentiles"]
        assert set(pcts) == {"p50", "p95", "p99"}
        assert pcts["p50"] <= pcts["p95"] <= pcts["p99"] <= latency["max"]

    def test_bucket_bounds_published_verbatim(self):
        metrics = ServiceMetrics()
        metrics.observe("POST /check", 200, 0.003)
        latency = metrics.snapshot()["endpoints"]["POST /check"]["latency_ms"]
        assert latency["buckets"] == list(LATENCY_BUCKETS_MS) + ["inf"]
        assert sum(latency["counts"]) == 1


class TestResolution:
    def test_memo_hit_percentiles_track_the_mean(self):
        # Memo hits take about 0.01 ms.  With a first bucket of (0, 1] ms
        # the interpolated p50 read 0.5 ms, 50x the mean.
        state = ServiceState()
        schema = json.dumps({"schema": "ROOT = [a -> T]; T = string"}).encode()
        status, envelope = state.handle("POST", "/schemas", schema)
        assert status == 200
        body = json.dumps({
            "fingerprint": envelope["result"]["fingerprint"],
            "query": "SELECT X WHERE ROOT = [a -> X]",
        }).encode()
        for _ in range(3000):
            assert state.handle("POST", "/satisfiable", body)[0] == 200
        endpoints = state.metrics.snapshot()["endpoints"]
        latency = endpoints["POST /satisfiable"]["latency_ms"]
        mean = latency["mean"]
        assert mean / 3 <= latency["percentiles"]["p50"] <= mean * 3


class TestClockSkewGuard:
    def test_negative_elapsed_clamped_and_counted(self):
        metrics = ServiceMetrics()
        metrics.observe("POST /evaluate", 200, -0.5)
        metrics.observe("POST /evaluate", 200, 0.002)
        snap = metrics.snapshot()
        assert snap["clock_skew"] == 1
        latency = snap["endpoints"]["POST /evaluate"]["latency_ms"]
        assert latency["total"] >= 0.0
        assert latency["mean"] >= 0.0
        # The clamped sample landed in the fastest bucket, not nowhere.
        assert sum(latency["counts"]) == 2

    def test_negative_batch_elapsed_clamped(self):
        metrics = ServiceMetrics()
        metrics.record_batch(10, 0, -1.0)
        snap = metrics.snapshot()
        assert snap["clock_skew"] == 1
        assert snap["batch"]["latency_ms"]["total"] == 0.0
        assert snap["batch"]["latency_ms"]["mean"] == 0.0

    def test_no_skew_counter_without_negative_samples(self):
        metrics = ServiceMetrics()
        metrics.observe("POST /check", 200, 0.001)
        metrics.record_batch(2, 0, 0.004)
        assert metrics.snapshot()["clock_skew"] == 0
