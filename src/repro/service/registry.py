"""The concurrent, fingerprint-keyed schema registry.

The registry is what turns the engine's memoization into a cross-request
asset: a schema is parsed and compiled **once** at registration — the
paper's per-schema artifacts (symbol alphabet, inhabited types, schema
graph, content NFAs, reachability tables) are pre-warmed into a dedicated
:class:`~repro.engine.Engine` — and every later request addresses it by
its :meth:`~repro.schema.model.Schema.fingerprint`, paying none of that
work again.

Design points:

* **One engine per registered schema.**  Cross-schema requests never
  contend on one cache lock, and evicting a schema frees its compiled
  artifacts in one step (the engine goes with the entry).
* **Bounded + LRU.**  ``max_schemas`` caps resident compiled schemas;
  registering past the bound evicts the least recently *used* entry
  (lookups refresh recency, not just registrations).
* **Thread-safe.**  A single lock guards the map and the counters; the
  expensive parse/pre-warm runs outside the lock, so concurrent
  registrations of distinct schemas proceed in parallel and a racing
  duplicate registration of the same fingerprint resolves to one entry.
* **Parse once per text.**  A bounded LRU of successful parses, keyed by
  ``(text, syntax, wrap)``, lets a repeated registration skip the lexer
  and parser: the hit hands back the same frozen :class:`Schema`, whether
  its entry is still resident, was evicted (a store reload) or was
  deleted (a recompile).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cancellation import Cancelled, current_deadline, raise_if_cancelled
from ..engine import Engine, prewarm
from ..schema import Schema, parse_dtd, parse_schema
from ..schema.migrate import MigrationReport, analyze_migration
from .envelope import ServiceError

#: Bound on the per-entry version chain ``GET /schemas/{fp}/history``
#: serves; older predecessors fall off the front.
MAX_HISTORY = 16

#: Bound on the per-entry decision memo (finished endpoint results keyed
#: by the request's (operation, query, pins, ...) tuple; see
#: :meth:`RegisteredSchema.cached_decision`).
DECISION_CACHE_SIZE = 512

#: Successful schema parses the registry keeps, keyed by ``(text,
#: syntax, wrap)``; the least recently used goes first.
SCHEMA_MEMO_ENTRIES = 256
#: Longer texts are parsed every time, so no client can pin large bodies
#: in the memo.  A parsed schema takes 5-34 bytes per character of its
#: text (2-14 KiB for the benchmark corpora's 211-702-character texts),
#: and about 60 for a long alternation of distinct labels, the costliest
#: shape measured; so a full memo holds about 2 MB of such schemas and
#: at most about 63 MB, plus 1 MB of texts.
SCHEMA_MEMO_MAX_CHARS = 4096


class UnknownSchemaError(ServiceError):
    """A request named a fingerprint that is not (or no longer) registered."""

    def __init__(self, fingerprint: str):
        super().__init__(
            f"no schema registered under fingerprint {fingerprint!r} "
            f"(it may have been evicted; re-register it)",
            code="unknown-schema",
            status=404,
            detail={"fingerprint": fingerprint},
        )


@dataclass
class RegisteredSchema:
    """One resident schema: the parsed model plus its dedicated engine."""

    fingerprint: str
    schema: Schema
    engine: Engine
    syntax: str
    registered_at: float
    requests: int = 0
    #: 1 for a fresh registration; each accepted migration bumps it.
    version: int = 1
    #: Bounded chain of superseded predecessors, oldest first (see
    #: :data:`MAX_HISTORY`); each element is a JSON-able snapshot.
    history: List[dict] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)
    #: Finished decision results keyed by the full request tuple.  A
    #: registered schema is immutable (a migration swaps in a *new*
    #: entry), so every decision endpoint is a pure function of its
    #: request — the memo turns the warm path for a repeated request
    #: into one dict lookup instead of thousands of engine-cache probes
    #: (a warm ``/infer`` re-entered the engine cache about 1,000 times).
    decisions: "OrderedDict[tuple, object]" = field(
        default_factory=OrderedDict, repr=False
    )
    decisions_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    decision_hits: int = 0
    decision_misses: int = 0

    def cached_decision(self, key: tuple, compute):
        """Memoized ``compute()`` keyed by the request tuple ``key``.

        Results are cached only on success (an exception propagates and
        caches nothing) and treated as immutable by every caller — the
        daemon shallow-copies before adding per-request fields.  The memo
        is a bounded LRU (:data:`DECISION_CACHE_SIZE`); hits refresh
        recency.
        """
        with self.decisions_lock:
            if key in self.decisions:
                self.decisions.move_to_end(key)
                self.decision_hits += 1
                return self.decisions[key]
        value = compute()
        with self.decisions_lock:
            if key not in self.decisions:
                self.decision_misses += 1
                self.decisions[key] = value
            while len(self.decisions) > DECISION_CACHE_SIZE:
                self.decisions.popitem(last=False)
        return value

    def describe(self) -> dict:
        """The JSON description ``GET /schemas`` and ``POST /schemas`` return."""
        return {
            "fingerprint": self.fingerprint,
            "syntax": self.syntax,
            "root": self.schema.root,
            "types": sorted(self.schema.tids()),
            "labels": sorted(self.schema.labels()),
            "requests": self.requests,
            "version": self.version,
            **self.info,
        }

    def describe_history(self) -> dict:
        """The JSON payload ``GET /schemas/{fp}/history`` returns."""
        return {
            "fingerprint": self.fingerprint,
            "version": self.version,
            "syntax": self.syntax,
            "root": self.schema.root,
            "history": [dict(snapshot) for snapshot in self.history],
        }


def parse_schema_text(text: str, syntax: str = "scmdl", wrap: bool = False) -> Schema:
    """Parse schema ``text`` in the named surface ``syntax``.

    The one place registration and migration agree on what syntaxes
    exist and how an unknown one fails.
    """
    if syntax == "scmdl":
        return parse_schema(text)
    if syntax == "dtd":
        return parse_dtd(text, wrap=wrap)
    raise ServiceError(
        f"unknown schema syntax {syntax!r} (expected 'scmdl' or 'dtd')",
        code="bad-request",
    )


def _parse_frozen(text: str, syntax: str, wrap: bool) -> Schema:
    """A parsed schema, fingerprinted: fingerprinting freezes it, so the
    registry's parse memo can hand one object to any number of entries
    and engines."""
    schema = parse_schema_text(text, syntax=syntax, wrap=wrap)
    schema.fingerprint()
    return schema


class SchemaRegistry:
    """A bounded LRU map from schema fingerprints to compiled schemas.

    With a ``store`` (an :class:`~repro.engine.ArtifactStore`), the
    registry gains a durable tier: every registration persists its
    compiled artifact, and construction *restores* the store's resident
    artifacts — so a daemon restart comes back with every previously
    registered schema already compiled, and its first request wave
    misses no schema-side engine-cache kind
    (``tests/service/test_registry_store.py``).
    """

    def __init__(
        self,
        max_schemas: int = 64,
        engine_max_entries: Optional[int] = 4096,
        store=None,
        restore: bool = True,
    ):
        if max_schemas <= 0:
            raise ValueError("max_schemas must be positive")
        self.max_schemas = max_schemas
        self.engine_max_entries = engine_max_entries
        self.store = store
        self._entries: "OrderedDict[str, RegisteredSchema]" = OrderedDict()
        self._lock = threading.Lock()
        self._registered = 0
        self._reregistered = 0
        self._register_races = 0
        self._evicted = 0
        self._lookups = 0
        self._lookup_misses = 0
        self._restored = 0
        self._store_hits = 0
        self._unregistered = 0
        self._migrations = 0
        self._migrations_rejected = 0
        # Sound because a parse is a pure function of (text, syntax, wrap).
        self._parse_memo = functools.lru_cache(maxsize=SCHEMA_MEMO_ENTRIES)(
            _parse_frozen
        )
        if store is not None and restore:
            self._restore_from_store()

    def _restore_from_store(self) -> None:
        """Re-install every valid stored artifact as a registered schema.

        Runs at construction (before the server accepts requests), so no
        locking subtleties: most-recently-used artifacts are installed
        last and therefore survive if the store holds more schemas than
        ``max_schemas``.  A corrupt blob is the store's problem (counted
        there, read as a miss) and simply is not restored.
        """
        fingerprints = self.store.fingerprints()  # LRU order, oldest first
        if len(fingerprints) > self.max_schemas:
            fingerprints = fingerprints[-self.max_schemas :]
        for fingerprint in fingerprints:
            artifact = self.store.get(fingerprint)
            if artifact is None:
                continue
            engine = Engine(
                max_entries=self.engine_max_entries,
                backend=artifact.backend,
                store=self.store,
            )
            engine.cache.seed(artifact.entries)
            syntax = self.store.meta(fingerprint).get("syntax", "scmdl")
            self._entries[fingerprint] = RegisteredSchema(
                fingerprint=fingerprint,
                schema=artifact.schema,
                engine=engine,
                syntax=syntax if isinstance(syntax, str) else "scmdl",
                registered_at=time.time(),
                info={"warmed_entries": len(engine.cache), "restored": True},
            )
            self._restored += 1

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def _parse(self, text: str, syntax: str, wrap: bool) -> Schema:
        """``parse_schema_text`` through the registry's parse memo.

        Successful parses of texts up to :data:`SCHEMA_MEMO_MAX_CHARS`
        characters are kept in a bounded LRU (:data:`SCHEMA_MEMO_ENTRIES`)
        keyed by ``(text, syntax, wrap)``; errors are not kept, and
        longer texts bypass the memo.  The memo holds no lock while it
        parses.
        """
        if len(text) > SCHEMA_MEMO_MAX_CHARS:
            return _parse_frozen(text, syntax, wrap)
        return self._parse_memo(text, syntax, wrap)

    def register(
        self, text: str, syntax: str = "scmdl", wrap: bool = False
    ) -> RegisteredSchema:
        """Parse, fingerprint, and pre-warm a schema; return its entry.

        Re-registering a schema that is already resident (same
        fingerprint) is cheap: the existing compiled entry is refreshed in
        LRU order and returned, with none of the automata rebuilt.  A
        text the parse memo holds is not parsed again either, resident or
        not.
        """
        schema = self._parse(text, syntax, wrap)
        fingerprint = schema.fingerprint()

        with self._lock:
            existing = self._entries.get(fingerprint)
            if existing is not None:
                self._entries.move_to_end(fingerprint)
                self._reregistered += 1
                return existing

        # Compile outside the lock: registrations of distinct schemas
        # must not serialize on each other's automata construction.  With
        # a store, the engine speaks the store's backend, or its artifact
        # could not be persisted there.
        engine = Engine(
            max_entries=self.engine_max_entries,
            backend=self.store.backend if self.store is not None else None,
            store=self.store,
        )
        info: Dict[str, object] = {}
        if engine.warm_from_store(schema):
            # Durable tier hit: the compiled working set was installed
            # from disk; nothing to rebuild, nothing to persist.  This is
            # the path an evicted-then-re-registered schema takes under
            # cache pressure — counted so ``/stats`` shows the store
            # served the reload (perfbench's schema-churn guards it).
            info["store_hit"] = True
            with self._lock:
                self._store_hits += 1
        else:
            prewarm(schema, engine)
            engine.persist_to_store(schema, syntax=syntax)
        info["warmed_entries"] = len(engine.cache)
        entry = RegisteredSchema(
            fingerprint=fingerprint,
            schema=schema,
            engine=engine,
            syntax=syntax,
            registered_at=time.time(),
            info=info,
        )

        with self._lock:
            racing = self._entries.get(fingerprint)
            if racing is not None:
                # A concurrent register() of the same schema won; keep one
                # entry so counters and cache hits stay coherent.  This
                # thread's parse + pre-warm was duplicate work — count it,
                # so the wasted compile cost is visible in /stats.
                self._entries.move_to_end(fingerprint)
                self._reregistered += 1
                self._register_races += 1
                return racing
            self._entries[fingerprint] = entry
            self._registered += 1
            while len(self._entries) > self.max_schemas:
                self._entries.popitem(last=False)
                self._evicted += 1
            return entry

    # ------------------------------------------------------------------
    # Migration (the version-aware path)
    # ------------------------------------------------------------------

    def migrate(
        self,
        fingerprint: str,
        text: str,
        syntax: str = "scmdl",
        wrap: bool = False,
        queries: tuple = (),
        policy: str = "compatible",
    ) -> tuple:
        """Analyze a migration and, if the policy accepts, swap the entry.

        Parses and pre-warms the candidate schema (same backend as the
        resident entry, artifact persisted through the store), runs
        :func:`repro.schema.migrate.analyze_migration` against the
        resident schema's warm engine, and — only when the report meets
        ``policy`` — atomically replaces the registry entry: the new
        fingerprint takes the old one's slot with ``version + 1`` and the
        predecessor appended to its bounded history chain, and the old
        fingerprint's stored artifact is deleted so a restart restores
        only the migrated schema.

        Returns ``(entry, report)`` where ``entry`` is the new entry on
        acceptance and the (unchanged) resident entry on rejection.

        Raises:
            UnknownSchemaError: if ``fingerprint`` is not resident.
            Cancelled: if the calling context's deadline passed
                before the swap (a timed-out ``/migrate``); the
                registry is left as it was and the candidate's stored
                artifact is deleted.
        """
        current = self.get(fingerprint)  # 404s early, refreshes recency

        schema = self._parse(text, syntax, wrap)
        new_fingerprint = schema.fingerprint()

        # Compile outside the lock, exactly like register().
        engine = Engine(
            max_entries=self.engine_max_entries,
            backend=current.engine.backend,
            store=self.store,
        )
        store_hit = engine.warm_from_store(schema)
        if not store_hit:
            prewarm(schema, engine)
            engine.persist_to_store(schema, syntax=syntax)

        try:
            report = analyze_migration(
                current.schema,
                schema,
                queries=queries,
                policy=policy,
                engine_old=current.engine,
                engine_new=engine,
            )
            # A caller that gave up (its deadline passed) has already been
            # told the request failed: the registry must not change after
            # that answer, whatever the analysis found.
            raise_if_cancelled(current_deadline())
        except Cancelled:
            self._discard_candidate(new_fingerprint, store_hit)
            raise
        if not report.accepted:
            with self._lock:
                self._migrations_rejected += 1
            self._discard_candidate(new_fingerprint, store_hit)
            return current, report
        if new_fingerprint == fingerprint:
            # A no-op migration: nothing to swap, no version bump.
            with self._lock:
                self._migrations += 1
            return current, report

        snapshot = {
            "fingerprint": fingerprint,
            "version": current.version,
            "registered_at": current.registered_at,
            "migrated_at": time.time(),
            "compatibility": report.compatibility,
            "policy": policy,
        }
        entry = RegisteredSchema(
            fingerprint=new_fingerprint,
            schema=schema,
            engine=engine,
            syntax=syntax,
            registered_at=time.time(),
            version=current.version + 1,
            history=(current.history + [snapshot])[-MAX_HISTORY:],
            info={"warmed_entries": len(engine.cache), "migrated_from": fingerprint},
        )
        with self._lock:
            resident = self._entries.pop(fingerprint, None)
            if resident is None:
                # Concurrently unregistered while we analyzed; surface 404.
                raise UnknownSchemaError(fingerprint)
            self._entries[new_fingerprint] = entry
            self._entries.move_to_end(new_fingerprint)
            self._migrations += 1
            while len(self._entries) > self.max_schemas:
                self._entries.popitem(last=False)
                self._evicted += 1
        if self.store is not None:
            self.store.delete(fingerprint)
        return entry, report

    def _discard_candidate(self, fingerprint: str, store_hit: bool) -> None:
        """Delete a migration candidate's artifact that was not applied.

        A restart restores every stored blob as a *registered* schema, so
        a refused or abandoned candidate must not leave its blob behind.
        A blob that existed before the analysis (``store_hit``) is someone
        else's and stays, as does the blob of a resident schema.
        """
        if self.store is not None and not store_hit and fingerprint not in self:
            self.store.delete(fingerprint)

    # ------------------------------------------------------------------
    # Lookup / eviction
    # ------------------------------------------------------------------

    def get(self, fingerprint: str) -> RegisteredSchema:
        """The entry for ``fingerprint``; refreshes LRU recency.

        Raises:
            UnknownSchemaError: if no such schema is resident (404).
        """
        if not isinstance(fingerprint, str) or not fingerprint:
            raise ServiceError(
                "request must name a registered schema 'fingerprint'",
                code="bad-request",
            )
        with self._lock:
            self._lookups += 1
            entry = self._entries.get(fingerprint)
            if entry is None:
                self._lookup_misses += 1
                raise UnknownSchemaError(fingerprint)
            self._entries.move_to_end(fingerprint)
            entry.requests += 1
            return entry

    def evict(self, fingerprint: str, purge_store: bool = False) -> bool:
        """Drop ``fingerprint``; True if it was resident.

        ``purge_store=True`` (what ``DELETE /schemas/{fp}`` passes) also
        deletes the schema's stored artifact, so an unregistered schema
        does not come back compiled on the next restart.  Explicit drops
        are additionally counted under ``unregistered`` — ``evicted``
        keeps covering every removal, LRU pressure included.
        """
        with self._lock:
            entry = self._entries.pop(fingerprint, None)
            if entry is not None:
                self._evicted += 1
                self._unregistered += 1
        if purge_store and self.store is not None:
            self.store.delete(fingerprint)
        return entry is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def entries(self) -> List[RegisteredSchema]:
        """A recency-ordered (oldest first) snapshot of resident entries."""
        with self._lock:
            return list(self._entries.values())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Registry counters plus each resident engine's cache counters."""
        with self._lock:
            entries = list(self._entries.values())
            counters = {
                "resident": len(entries),
                "max_schemas": self.max_schemas,
                "registered": self._registered,
                "reregistered": self._reregistered,
                "register_races": self._register_races,
                "evicted": self._evicted,
                "lookups": self._lookups,
                "lookup_misses": self._lookup_misses,
                "restored": self._restored,
                "store_hits": self._store_hits,
                "unregistered": self._unregistered,
                "migrations": self._migrations,
                "migrations_rejected": self._migrations_rejected,
            }
        memo = self._parse_memo.cache_info()
        counters["parse_memo"] = {
            "hits": memo.hits,
            "misses": memo.misses,
            "size": memo.currsize,
        }
        if self.store is not None:
            counters["store"] = self.store.stats()
        engines = {}
        for entry in entries:
            stats = entry.engine.stats()
            with entry.decisions_lock:
                decisions = {
                    "hits": entry.decision_hits,
                    "misses": entry.decision_misses,
                    "size": len(entry.decisions),
                }
            engines[entry.fingerprint] = {
                "backend": entry.engine.backend,
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "size": stats.size,
                "decisions": decisions,
                "by_kind": {
                    kind: {"hits": ks.hits, "misses": ks.misses}
                    for kind, ks in sorted(stats.by_kind.items())
                },
            }
        counters["engines"] = engines
        return counters
