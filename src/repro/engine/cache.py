"""The memoizing cache behind the compilation engine.

:class:`EngineCache` is a bounded LRU map from structured keys to computed
artifacts (compiled NFAs, schema graphs, trace products, ...).  Keys are
tuples whose first element is a short *kind* string (``"thompson"``,
``"content-nfa"``, ``"trace-product"``, ...) followed by hashable
ingredients — typically a schema fingerprint and a hash-consed regex.
Hash-consing (:mod:`repro.automata.syntax`) makes regex keys O(1) to hash,
and schema fingerprints (:meth:`repro.schema.model.Schema.fingerprint`)
stand in for whole schemas, so equal inputs share cache lines no matter
which layer asks.

The cache keeps hit/miss/eviction counters, both globally and per kind,
so benchmarks can report speedups honestly (see
``benchmarks/bench_engine_cache.py``).  The LRU bound keeps long-running
processes memory-safe: the default of 4096 entries comfortably holds the
working set of every workload in this repository while bounding worst-case
growth.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Optional, Tuple

from ..cancellation import Cancelled, current_deadline


@dataclass(frozen=True)
class KindStats:
    """Hit/miss counters for one key kind."""

    hits: int = 0
    misses: int = 0

    @property
    def calls(self) -> int:
        return self.hits + self.misses


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of an :class:`EngineCache`'s counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    max_entries: int
    by_kind: Dict[str, KindStats] = field(default_factory=dict)

    @property
    def calls(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.calls if self.calls else 0.0

    def __str__(self) -> str:
        lines = [
            f"EngineCache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.1%}), {self.size}/{self.max_entries} entries, "
            f"{self.evictions} evictions"
        ]
        for kind in sorted(self.by_kind):
            stats = self.by_kind[kind]
            lines.append(f"  {kind}: {stats.hits} hits / {stats.misses} misses")
        return "\n".join(lines)


class EngineCache:
    """A bounded, instrumented LRU cache for compiled automata artifacts.

    Args:
        max_entries: LRU bound; the least recently used entry is evicted
            once the cache would exceed it.  ``None`` disables the bound
            (only sensible for short-lived processes and tests).
    """

    def __init__(self, max_entries: Optional[int] = 4096):
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None)")
        self.max_entries = max_entries
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._kind_hits: Dict[str, int] = {}
        self._kind_misses: Dict[str, int] = {}
        # Reentrant because compute() callbacks routinely consult the cache
        # under *different* keys (a trace product asking for its component
        # NFAs).  Holding the lock across compute() serializes computation
        # within one cache, which is intentional: it guarantees each key is
        # computed at most once ("single flight") and keeps the LRU and the
        # counters exact under the threaded service, where concurrency comes
        # from the one-engine-per-registered-schema layout rather than from
        # parallel computes inside a single engine.
        self._lock = threading.RLock()

    @staticmethod
    def _kind_of(key: Hashable) -> str:
        if isinstance(key, tuple) and key and isinstance(key[0], str):
            return key[0]
        return "other"

    def get_or_compute(self, key: Hashable, compute: Callable[[], object]) -> object:
        """Return the cached value for ``key``, computing and storing on miss.

        ``compute`` may itself consult the cache under *different* keys
        (e.g. a trace product computing its component NFAs); re-entrant
        lookups under the same key are the caller's bug, not supported.

        Thread-safe: the cache lock is held for the whole call, including
        ``compute``, so concurrent callers of the same key block until the
        first finishes and then take a hit on the stored value.  A caller
        with a deadline bound (:mod:`repro.cancellation`) waits for the
        lock only until that deadline, then raises
        :class:`~repro.cancellation.Cancelled`.
        """
        kind = self._kind_of(key)
        deadline = current_deadline()
        if deadline is None:
            self._lock.acquire()
        elif not self._lock.acquire(timeout=max(0.0, deadline - time.monotonic())):
            raise Cancelled()
        try:
            if key in self._data:
                self._hits += 1
                self._kind_hits[kind] = self._kind_hits.get(kind, 0) + 1
                self._data.move_to_end(key)
                return self._data[key]
            self._misses += 1
            self._kind_misses[kind] = self._kind_misses.get(kind, 0) + 1
            value = compute()
            self._data[key] = value
            self._data.move_to_end(key)
            if self.max_entries is not None:
                while len(self._data) > self.max_entries:
                    self._data.popitem(last=False)
                    self._evictions += 1
            return value
        finally:
            self._lock.release()

    def snapshot(self, predicate: Callable[[Hashable], bool]) -> Dict[Hashable, object]:
        """A shallow copy of the entries whose key satisfies ``predicate``.

        Used by :mod:`repro.engine.artifact` to capture shippable compiled
        artifacts; values are shared, not copied — callers must treat them
        as immutable (as all engine artifacts are).
        """
        with self._lock:
            return {key: value for key, value in self._data.items() if predicate(key)}

    def seed(self, entries: Dict[Hashable, object]) -> int:
        """Install precomputed entries; returns how many were new.

        Counters are untouched — seeded entries are not misses (nothing was
        computed here) and not hits (nothing asked yet).  Existing keys win
        over seeded ones, so a live cache is never clobbered.
        """
        with self._lock:
            added = 0
            for key, value in entries.items():
                if key in self._data:
                    continue
                self._data[key] = value
                added += 1
            if self.max_entries is not None:
                while len(self._data) > self.max_entries:
                    self._data.popitem(last=False)
                    self._evictions += 1
            return added

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        """Drop all entries (counters are kept; use a new cache to reset)."""
        with self._lock:
            self._data.clear()

    def stats(self) -> CacheStats:
        """A snapshot of hit/miss/eviction counters, total and per kind."""
        with self._lock:
            kinds = set(self._kind_hits) | set(self._kind_misses)
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                max_entries=self.max_entries if self.max_entries is not None else -1,
                by_kind={
                    kind: KindStats(
                        hits=self._kind_hits.get(kind, 0),
                        misses=self._kind_misses.get(kind, 0),
                    )
                    for kind in kinds
                },
            )

    def __repr__(self) -> str:
        return (
            f"EngineCache(size={len(self._data)}, max_entries={self.max_entries}, "
            f"hits={self._hits}, misses={self._misses})"
        )
