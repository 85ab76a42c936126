"""Per-endpoint request metrics for the typed-query daemon.

:class:`ServiceMetrics` collects, per endpoint: request and error counts,
a count per status class, and a fixed-bucket latency histogram (upper
bounds in milliseconds, last bucket unbounded).  Everything is guarded by
one lock — observations are a handful of integer increments, so a single
mutex is cheaper than sharded counters at this scale.

``/stats`` merges a :meth:`snapshot` with the schema registry's counters
and each registered engine's per-kind cache hit/miss numbers (see
:meth:`repro.service.daemon.ServiceState.stats_payload`), which is what
lets a benchmark assert "warm requests hit the automata cache" from the
outside, with no process introspection.

Each endpoint snapshot carries a ``percentiles`` block (p50/p95/p99)
interpolated from the histogram buckets.  These are *estimates* — exact
within a bucket's width, with the unbounded tail bucket closed at the
observed maximum; a load generator that keeps raw samples (``perfbench``)
computes exact client-side percentiles itself.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Histogram bucket upper bounds, in milliseconds (last bucket = +inf): a
#: 1-2.5-5 series from 0.01 ms to 10 s, fine enough that a decision-memo
#: hit (about 0.01 ms) is not interpolated across a 1-ms bucket.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)

#: The percentile points every latency snapshot reports.
PERCENTILE_POINTS: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


def bucket_percentiles(
    counts: Sequence[int],
    bounds: Sequence[float] = LATENCY_BUCKETS_MS,
    max_value: float = 0.0,
) -> Dict[str, float]:
    """p50/p95/p99 interpolated from a fixed-bucket latency histogram.

    Linear interpolation inside the containing bucket (the convention
    Prometheus' ``histogram_quantile`` uses); the unbounded last bucket
    is closed at ``max_value`` (the observed maximum), so an estimate can
    never exceed what was actually seen.  All zeros when no observations.
    """
    total = sum(counts)
    result = {name: 0.0 for name, _q in PERCENTILE_POINTS}
    if total <= 0:
        return result
    for name, q in PERCENTILE_POINTS:
        rank = q * total
        cumulative = 0
        estimate = float(max_value)
        for index, count in enumerate(counts):
            if not count:
                continue
            previous = cumulative
            cumulative += count
            if cumulative >= rank:
                lower = bounds[index - 1] if index > 0 else 0.0
                if index < len(bounds):
                    upper = bounds[index]
                else:
                    upper = max(float(max_value), lower)
                fraction = (rank - previous) / count
                estimate = lower + (upper - lower) * fraction
                break
        result[name] = round(min(estimate, float(max_value)), 3)
    return result


class _EndpointMetrics:
    __slots__ = ("requests", "errors", "by_status", "buckets", "total_ms", "max_ms")

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.by_status: Dict[str, int] = {}
        self.buckets: List[int] = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        self.total_ms = 0.0
        self.max_ms = 0.0

    def observe(self, status: int, elapsed_ms: float) -> None:
        self.requests += 1
        if status >= 400:
            self.errors += 1
        key = str(status)
        self.by_status[key] = self.by_status.get(key, 0) + 1
        # The first bucket whose upper bound is >= elapsed_ms.
        self.buckets[bisect.bisect_left(LATENCY_BUCKETS_MS, elapsed_ms)] += 1
        self.total_ms += elapsed_ms
        self.max_ms = max(self.max_ms, elapsed_ms)

    def snapshot(self) -> dict:
        # Derive every reported latency figure from ONE source: the
        # 3-decimal-rounded totals the snapshot itself publishes.  The
        # mean used to divide the *unrounded* total, so a scraper
        # recomputing mean = total / requests from the snapshot could
        # disagree with the reported mean by a rounding ulp.
        total = round(self.total_ms, 3)
        maximum = round(self.max_ms, 3)
        return {
            "requests": self.requests,
            "errors": self.errors,
            "by_status": dict(self.by_status),
            "latency_ms": {
                "buckets": list(LATENCY_BUCKETS_MS) + ["inf"],
                "counts": list(self.buckets),
                "total": total,
                "mean": round(total / self.requests, 3) if self.requests else 0.0,
                "max": maximum,
                "percentiles": bucket_percentiles(
                    self.buckets, LATENCY_BUCKETS_MS, maximum
                ),
            },
        }


class ServiceMetrics:
    """Thread-safe request counters and latency histograms, per endpoint."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._endpoints: Dict[str, _EndpointMetrics] = {}
        self._started = None  # type: Optional[float]
        self._batches = 0
        self._batch_items = 0
        self._batch_item_errors = 0
        self._batch_total_ms = 0.0
        self._batch_max_ms = 0.0
        self._migration_queries = 0
        self._migration_breaks = 0
        self._clock_skew = 0

    def mark_started(self, now: float) -> None:
        """Record the server start time (``time.time()``) for uptime."""
        with self._lock:
            self._started = now

    def started_at(self) -> Optional[float]:
        with self._lock:
            return self._started

    def observe(self, endpoint: str, status: int, elapsed_s: float) -> None:
        """Record one finished request against ``endpoint``.

        The daemon passes the request's route template (see
        :func:`repro.service.routes.resolve`), never its raw path, so
        the table holds one entry per route.

        A negative ``elapsed_s`` means the caller measured with a clock
        that stepped backwards mid-request (wall clock + NTP, or a buggy
        harness); it is clamped to zero and counted under ``clock_skew``
        rather than poisoning the totals with negative durations.
        """
        with self._lock:
            if elapsed_s < 0.0:
                self._clock_skew += 1
                elapsed_s = 0.0
            metrics = self._endpoints.get(endpoint)
            if metrics is None:
                metrics = self._endpoints[endpoint] = _EndpointMetrics()
            metrics.observe(status, elapsed_s * 1000.0)

    def record_batch(self, items: int, item_errors: int, elapsed_s: float) -> None:
        """Record one finished ``/batch`` request's per-item outcome.

        ``observe`` already counts the HTTP request itself; this tracks
        what that one request *hid*: how many items it decided and how
        many of them failed individually — which per-endpoint request
        counters cannot see.  Negative durations clamp to zero exactly
        like :meth:`observe`.
        """
        with self._lock:
            if elapsed_s < 0.0:
                self._clock_skew += 1
                elapsed_s = 0.0
            elapsed_ms = elapsed_s * 1000.0
            self._batches += 1
            self._batch_items += items
            self._batch_item_errors += item_errors
            self._batch_total_ms += elapsed_ms
            self._batch_max_ms = max(self._batch_max_ms, elapsed_ms)

    def record_migration(self, queries: int, breaks: int) -> None:
        """Record one finished ``/schemas/{fp}/migrate`` analysis.

        Tracks how many registered queries the delta subsystem analyzed
        and how many of them a migration would have broken.  The registry
        counts the migrations themselves (``migrations``,
        ``migrations_rejected``) and the unregisters (``unregistered``).
        """
        with self._lock:
            self._migration_queries += queries
            self._migration_breaks += breaks

    def snapshot(self) -> dict:
        """All per-endpoint counters plus request/error and batch totals."""
        with self._lock:
            endpoints = {
                name: metrics.snapshot()
                for name, metrics in sorted(self._endpoints.items())
            }
            batch_total = round(self._batch_total_ms, 3)
            batch = {
                "batches": self._batches,
                "items": self._batch_items,
                "item_errors": self._batch_item_errors,
                "latency_ms": {
                    "total": batch_total,
                    "mean": round(batch_total / self._batches, 3)
                    if self._batches
                    else 0.0,
                    "max": round(self._batch_max_ms, 3),
                },
            }
            delta = {
                "queries_analyzed": self._migration_queries,
                "queries_broken": self._migration_breaks,
            }
            clock_skew = self._clock_skew
        return {
            "requests": sum(e["requests"] for e in endpoints.values()),
            "errors": sum(e["errors"] for e in endpoints.values()),
            "clock_skew": clock_skew,
            "batch": batch,
            "delta": delta,
            "endpoints": endpoints,
        }
