"""The multi-process serving tier: a compiler pool behind an async front.

One threaded-tier process caps decision throughput at roughly
one core — the GIL serializes the automata walks no matter how many
threads the registry runs.  This module is the edgedb-style answer: a
**lightweight asyncio frontend** that parses and validates HTTP
requests, answers ``/healthz``, ``/stats``, and registry metadata
locally, and routes every decision request **by schema fingerprint** to
a pool of persistent worker processes.

Topology::

      clients ──HTTP/1.1 keep-alive (pipelining ok)──▶ frontend (asyncio)
                                                          │ fingerprint shard
                                            ┌─────────────┼─────────────┐
                                          pipe           pipe          pipe
                                            │             │             │
                                        worker 0      worker 1      worker N-1
                                       (ServiceState, shard-warmed registry)

Design points, mirroring the edgedb compiler pool:

* **Workers are persistent and warm.**  Each worker owns a full
  :class:`~repro.service.daemon.ServiceState` whose registry restores
  *its shard* of fingerprints from the shared
  :class:`~repro.engine.ArtifactStore` at spawn — so a fresh worker
  (boot or post-crash respawn) answers its first request at warm-path
  latency instead of recompiling schemas.
* **Sticky fingerprint routing.**  ``shard_of(fingerprint)`` assigns
  every schema a home worker; all requests for a fingerprint hit the
  same worker, so its engine cache and decision memo stay hot and no
  compiled artifact is resident twice.  A migration that changes the
  fingerprint pins the new fingerprint to the old one's worker via a
  routing override (the override list is re-applied when that worker is
  respawned).
* **Crash containment.**  A worker dying mid-request answers the
  in-flight request with a structured 503 ``worker-crashed`` envelope,
  and the frontend respawns the worker before accepting further traffic
  for its shard; the respawned worker warms from the artifact store, so
  the next request on the same fingerprint succeeds warm.
* **One framing layer.**  The frontend frames HTTP/1.1 through
  :mod:`repro.service.framing`, the same head parser, caps, keep-alive
  and 100-continue rules and one-buffer responses as the threaded tier.
* **Merged observability.**  ``/stats`` fans a control op to every
  worker and merges the answers: summed registry counters, the union of
  per-engine cache counters, per-worker liveness/respawn counts, plus
  the frontend's own request metrics.

The frontend itself never runs a decision procedure; its per-request
work is one small JSON parse (for the routing fingerprint) and one pipe
roundtrip, which is what lets worker processes — not the frontend GIL —
set the throughput ceiling.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import os
import tempfile
import threading
import time
import zlib
from typing import Any, Dict, List, Optional, Tuple

from .envelope import ServiceError, as_service_error, error_envelope, ok_envelope
from .framing import (
    CONTINUE,
    LISTEN_BACKLOG,
    MAX_LINE_BYTES,
    ConnectionClosed,
    RequestHead,
    encode,
)
from .limits import ServiceLimits
from .metrics import ServiceMetrics
from .routes import (
    DELETE_SCHEMA,
    SCHEMA_MIGRATE,
    UNMATCHED,
    Route,
    request_path,
    resolve,
    unmatched_error,
)

#: Seconds a freshly spawned worker gets to import, warm its shard, and
#: answer the ready handshake.
SPAWN_TIMEOUT_S = 60.0

#: Grace added to the service's max deadline before the frontend
#: declares a silent worker wedged (kills and respawns it).
WORKER_GRACE_S = 30.0


def shard_of(fingerprint: str, num_workers: int) -> int:
    """The home worker index for ``fingerprint``.

    CRC32 rather than ``hash()``: the assignment must be identical in the
    frontend and in every (separately spawned) worker process, and
    ``PYTHONHASHSEED`` randomizes ``hash()`` per process.
    """
    return zlib.crc32(fingerprint.encode("utf-8")) % num_workers


class WorkerCrashed(ServiceError):
    """A pool worker died (or wedged) while holding a request."""

    def __init__(self, worker_id: int, reason: str):
        super().__init__(
            f"pool worker {worker_id} died mid-request ({reason}); "
            f"it has been respawned warm from the artifact store — retry",
            code="worker-crashed",
            status=503,
            detail={"worker": worker_id, "reason": reason},
        )


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _worker_main(conn, worker_id: int, num_workers: int, config: dict) -> None:
    """The loop a pool worker runs: recv an op, answer it, repeat.

    Ops (tuples; first element is the op name):

    ``("request", method, path, body)``
        Dispatch through a full :class:`ServiceState`; replies
        ``("response", status, payload_bytes)`` — the envelope is
        JSON-encoded worker-side so N workers serialize in parallel.
    ``("list",)``   → ``("list", [entry descriptions])``
    ``("stats",)``  → ``("stats", {... state stats payload ...})``
    ``("ping", delay_s)`` → ``("pong", pid)`` after sleeping ``delay_s``
        (liveness probe; the crash tests use the delay to hold the
        worker mid-request deterministically).
    ``("shutdown",)`` → ``("bye",)`` and exit.
    """
    # Imports are local so ``spawn`` children pay them once, here, and a
    # traceback during warmup still reaches the handshake below.
    from ..engine import ArtifactStore
    from ..engine.core import BACKEND_ENV_VAR
    from .daemon import ServiceState
    from .registry import SchemaRegistry

    try:
        backend = config.get("backend")
        if backend:
            os.environ[BACKEND_ENV_VAR] = backend
        store = None
        if config.get("store_dir"):
            store = ArtifactStore(root=config["store_dir"], backend=backend)
        extras = frozenset(config.get("extra_fingerprints") or ())

        def shard_filter(fingerprint: str) -> bool:
            return (
                shard_of(fingerprint, num_workers) == worker_id
                or fingerprint in extras
            )

        registry = SchemaRegistry(
            max_schemas=config.get("max_schemas", 64),
            engine_max_entries=config.get("engine_max_entries", 4096),
            store=store,
            restore_filter=shard_filter,
        )
        state = ServiceState(registry=registry, limits=config["limits"])
    except BaseException as error:  # noqa: BLE001 — surface to the frontend
        try:
            conn.send(("failed", f"{type(error).__name__}: {error}"))
        finally:
            return
    conn.send(("ready", os.getpid(), len(registry)))

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        op = message[0]
        try:
            if op == "request":
                _, method, path, body = message
                status, envelope = state.handle(method, path, body)
                reply = ("response", status, encode(envelope))
            elif op == "list":
                reply = ("list", [entry.describe() for entry in registry.entries()])
            elif op == "stats":
                payload = state.stats_payload()
                payload["pid"] = os.getpid()
                reply = ("stats", payload)
            elif op == "ping":
                delay = message[1] if len(message) > 1 else 0.0
                if delay:
                    time.sleep(delay)
                reply = ("pong", os.getpid())
            elif op == "shutdown":
                try:
                    conn.send(("bye",))
                finally:
                    break
            else:
                reply = ("error", f"unknown worker op {op!r}")
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break  # frontend went away; nothing left to answer


# ----------------------------------------------------------------------
# The pool (frontend side)
# ----------------------------------------------------------------------


class _WorkerHandle:
    """Frontend-side bookkeeping for one worker process."""

    __slots__ = ("id", "process", "conn", "lock", "pid", "crashes", "requests",
                 "spawned_at")

    def __init__(self, worker_id: int):
        self.id = worker_id
        self.process = None
        self.conn = None
        self.lock = asyncio.Lock()
        self.pid: Optional[int] = None
        self.crashes = 0
        self.requests = 0
        self.spawned_at = 0.0

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class CompilerPool:
    """``num_workers`` persistent worker processes plus sticky routing.

    All async methods must run on the frontend's event loop; the sync
    :meth:`spawn_all` / :meth:`terminate_all` run at boot/shutdown when
    no loop is serving.  Per-worker ``asyncio.Lock``s serialize requests
    onto each worker pipe — the pool's concurrency is exactly one
    in-flight decision per worker, the compiler-pool shape.
    """

    def __init__(
        self,
        num_workers: int,
        store_dir: Optional[str],
        backend: Optional[str] = None,
        limits: Optional[ServiceLimits] = None,
        max_schemas: int = 64,
        engine_max_entries: Optional[int] = 4096,
    ):
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.num_workers = num_workers
        self.store_dir = store_dir
        self.backend = backend
        self.limits = limits if limits is not None else ServiceLimits()
        self.max_schemas = max_schemas
        self.engine_max_entries = engine_max_entries
        self.worker_timeout_s = self.limits.max_deadline_s + WORKER_GRACE_S
        # ``spawn`` rather than ``fork``: respawns happen while the
        # frontend runs an event loop plus executor threads, and forking
        # a threaded process is undefined behavior waiting to happen.
        # Workers start warm from the artifact store either way.
        self._ctx = multiprocessing.get_context("spawn")
        self._ensure_child_import_path()
        self._workers = [_WorkerHandle(i) for i in range(num_workers)]
        #: Explicit fingerprint → worker assignments that override
        #: ``shard_of`` (currently: fingerprints created by a migration,
        #: which stay on the predecessor's worker).
        self._routing: Dict[str, int] = {}
        self._respawns = 0
        self._round_robin = itertools.count()

    # -- boot/shutdown (sync) ------------------------------------------

    @staticmethod
    def _ensure_child_import_path() -> None:
        """Make ``repro`` importable in ``spawn`` children.

        The parent may have gotten ``src`` onto ``sys.path`` without
        exporting ``PYTHONPATH`` (pytest ``pythonpath``, editable
        installs); spawned children only inherit the environment.
        """
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        existing = os.environ.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            os.environ["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )

    def _worker_config(self, extras: List[str]) -> dict:
        return {
            "store_dir": self.store_dir,
            "backend": self.backend,
            "max_schemas": self.max_schemas,
            "engine_max_entries": self.engine_max_entries,
            "limits": self.limits,
            "extra_fingerprints": extras,
        }

    def _spawn(self, handle: _WorkerHandle) -> None:
        """Start (or restart) ``handle``'s process; blocks until warm."""
        extras = [fp for fp, idx in self._routing.items() if idx == handle.id]
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, handle.id, self.num_workers, self._worker_config(extras)),
            daemon=True,
            name=f"repro-pool-{handle.id}",
        )
        process.start()
        # Close our copy of the child end: once the worker dies, writes
        # fail with EPIPE immediately instead of filling a dead buffer.
        child_conn.close()
        if not parent_conn.poll(SPAWN_TIMEOUT_S):
            process.terminate()
            raise RuntimeError(f"pool worker {handle.id} never became ready")
        message = parent_conn.recv()
        if message[0] != "ready":
            process.join(timeout=5)
            raise RuntimeError(f"pool worker {handle.id} failed to boot: {message[1]}")
        handle.process = process
        handle.conn = parent_conn
        handle.pid = message[1]
        handle.spawned_at = time.time()

    def spawn_all(self) -> None:
        for handle in self._workers:
            self._spawn(handle)

    def terminate_all(self, timeout: float = 5.0) -> None:
        """Best-effort worker shutdown: polite op, then SIGTERM, then join.

        The join budget is measured on the **monotonic** clock: with
        ``time.time()`` an NTP step mid-shutdown either hangs the join
        (clock stepped back, deadline recedes) or expires it instantly
        (clock stepped forward).  Wall clock remains only in the
        human-facing ``spawned_at``/``uptime_s`` fields.
        """
        for handle in self._workers:
            if handle.conn is not None:
                try:
                    handle.conn.send(("shutdown",))
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + timeout
        for handle in self._workers:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if handle.conn is not None:
                handle.conn.close()
                handle.conn = None

    # -- routing --------------------------------------------------------

    def route(self, fingerprint: str) -> int:
        index = self._routing.get(fingerprint)
        if index is not None:
            return index
        return shard_of(fingerprint, self.num_workers)

    def any_worker(self) -> int:
        """Round-robin target for requests with no routing fingerprint."""
        return next(self._round_robin) % self.num_workers

    def pin(self, fingerprint: str, worker_id: int) -> None:
        """Pin ``fingerprint`` to ``worker_id`` iff it is off its shard home."""
        if shard_of(fingerprint, self.num_workers) == worker_id:
            self._routing.pop(fingerprint, None)
        else:
            self._routing[fingerprint] = worker_id

    def unpin(self, fingerprint: str) -> None:
        self._routing.pop(fingerprint, None)

    # -- the request path (async, on the frontend loop) -----------------

    async def call(self, worker_id: int, message: tuple,
                   timeout: Optional[float] = None) -> tuple:
        """Send ``message`` to a worker; return its reply tuple.

        Serializes on the worker's lock.  Any transport failure — EOF
        (crash), EPIPE (already dead), or a response timeout (wedged) —
        respawns the worker *while still holding its lock*, so queued
        requests proceed against the fresh warm worker, and raises
        :class:`WorkerCrashed` for the in-flight request.
        """
        handle = self._workers[worker_id]
        timeout = timeout if timeout is not None else self.worker_timeout_s
        async with handle.lock:
            if handle.conn is None:
                # A previous respawn failed outright; try again before
                # serving, so one bad spawn doesn't brick the shard.
                await asyncio.get_running_loop().run_in_executor(
                    None, self._spawn, handle
                )
            try:
                handle.conn.send(message)
                await self._wait_readable(handle.conn.fileno(), timeout)
                reply = handle.conn.recv()
                handle.requests += 1
                return reply
            except (EOFError, OSError, BrokenPipeError) as error:
                reason = type(error).__name__
            except asyncio.TimeoutError:
                reason = f"no response within {timeout:g}s"
            await self._respawn_locked(handle)
            raise WorkerCrashed(worker_id, reason)

    @staticmethod
    async def _wait_readable(fd: int, timeout: float) -> None:
        loop = asyncio.get_running_loop()
        ready: asyncio.Future = loop.create_future()
        loop.add_reader(fd, lambda: ready.done() or ready.set_result(None))
        try:
            await asyncio.wait_for(ready, timeout)
        finally:
            loop.remove_reader(fd)

    async def _respawn_locked(self, handle: _WorkerHandle) -> None:
        """Replace a dead/wedged worker's process (caller holds its lock)."""
        handle.crashes += 1
        self._respawns += 1
        process, conn = handle.process, handle.conn
        handle.process, handle.conn, handle.pid = None, None, None

        def rebuild() -> None:
            if process is not None:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=5.0)
            if conn is not None:
                conn.close()
            self._spawn(handle)

        # Spawning blocks for the child's import + shard warmup; keep the
        # event loop serving other workers meanwhile.
        await asyncio.get_running_loop().run_in_executor(None, rebuild)

    async def request(self, worker_id: int, method: str, path: str,
                      body: bytes) -> Tuple[int, bytes]:
        """Forward an HTTP request; returns ``(status, payload_bytes)``."""
        reply = await self.call(worker_id, ("request", method, path, body))
        if reply[0] != "response":
            raise ServiceError(
                f"worker {worker_id} answered {reply[0]!r} to a request op",
                code="internal",
                status=500,
            )
        return reply[1], reply[2]

    # -- fan-out introspection ------------------------------------------

    async def list_schemas(self) -> List[dict]:
        entries: List[dict] = []
        for handle in self._workers:
            try:
                reply = await self.call(handle.id, ("list",))
                entries.extend(reply[1])
            except ServiceError:
                continue  # a crashed worker has nothing resident
        entries.sort(key=lambda entry: entry.get("fingerprint", ""))
        return entries

    async def merged_stats(self) -> dict:
        """Per-worker stats plus their sum, the ``/stats`` pool section."""
        per_worker: List[dict] = []
        payloads: List[dict] = []
        for handle in self._workers:
            row = {
                "id": handle.id,
                "pid": handle.pid,
                "alive": handle.alive(),
                "crashes": handle.crashes,
                "requests": handle.requests,
            }
            try:
                reply = await self.call(handle.id, ("stats",))
                payload = reply[1]
                row["resident"] = payload["registry"]["resident"]
                row["stats"] = payload
                payloads.append(payload)
            except ServiceError as error:
                row["error"] = error.message
            per_worker.append(row)
        merged_registry = _merge_numeric([p["registry"] for p in payloads])
        merged_limits = _merge_numeric([p["limits"] for p in payloads])
        # The workers' own request metrics (what each worker-side
        # ServiceState observed), merged with the same per-key semantics:
        # counts sum, maxima max, means request-weighted, histogram
        # bounds verbatim.  The frontend's metrics live under "service".
        merged_worker_service = _merge_numeric(
            [p["service"] for p in payloads if isinstance(p.get("service"), dict)]
        )
        return {
            "pool": {
                "workers": self.num_workers,
                "respawns": self._respawns,
                "routing_overrides": len(self._routing),
                "per_worker": per_worker,
            },
            "registry": merged_registry,
            "limits": merged_limits,
            "worker_service": merged_worker_service,
        }

    def describe(self) -> dict:
        return {
            "workers": self.num_workers,
            "alive": sum(1 for handle in self._workers if handle.alive()),
            "respawns": self._respawns,
        }

    @property
    def workers(self) -> List[_WorkerHandle]:
        return self._workers


#: Numeric keys that are *bounds or observed maxima*, not additive
#: counters: merging N workers' stats must take the max, never the sum
#: (two workers each bounded at 64 schemas do not make a 128 bound, and
#: two per-worker latency maxima do not add).
_MAX_KEYS = frozenset((
    "max", "max_ms", "max_schemas", "max_slots", "max_deadline_s",
    "max_body_bytes", "max_batch_items",
))

#: Keys whose values are configuration shared by every worker and must
#: survive the merge verbatim (first occurrence), even when they happen
#: to hold lists of numbers — the histogram bucket *bounds* most of all.
_VERBATIM_KEYS = frozenset(("buckets", "bounds"))

#: Per-bucket observation counts: lists that merge element-wise.
_ELEMENTWISE_KEYS = frozenset(("counts",))


def _merge_numeric(payloads: List[dict], weights: Optional[List[float]] = None) -> dict:
    """Merge worker stat dicts with per-key semantics.

    The naive predecessor summed every numeric leaf, which corrupted the
    non-additive fields: per-worker ``latency_ms.mean`` values were
    *summed* across workers (a 2-worker pool reported roughly double the
    true mean), ``max`` became a sum of maxima, and config bounds like
    ``max_schemas`` inflated with the worker count.  The rules now:

    * plain counters (requests, errors, hits, evictions, ...) **sum**;
    * ``max*`` keys take the **max** (observed maxima and config bounds);
    * ``mean`` merges as the **weighted mean**, weighted by each worker's
      nearest enclosing ``requests``/``batches`` count — and when the
      merged dict carries a full histogram (``counts`` + ``total``), the
      mean and ``percentiles`` are *recomputed* from the merged histogram
      so every derived figure comes from one consistent source;
    * ``buckets``/``bounds`` (bucket boundary lists) are kept verbatim;
    * ``counts`` lists merge element-wise;
    * dicts recurse; engine maps union naturally because shard routing
      keeps their fingerprint keys disjoint; other non-numeric leaves
      (backend names, pids) take the first occurrence.
    """
    payloads = [p for p in payloads if isinstance(p, dict)]
    if weights is None:
        weights = [1.0] * len(payloads)
    # A payload's weight at this level: its own request-ish counter when
    # it has one (endpoint snapshots carry "requests", batch blocks carry
    # "batches"), else the weight inherited from the enclosing dict.
    level_weights: List[float] = []
    for payload, inherited in zip(payloads, weights):
        weight = inherited
        for counter in ("requests", "batches"):
            value = payload.get(counter)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                weight = float(value)
                break
        level_weights.append(weight)

    merged: dict = {}
    seen_keys: List[str] = []
    for payload in payloads:
        for key in payload:
            if key not in merged:
                merged[key] = None
                seen_keys.append(key)

    for key in seen_keys:
        values = [
            (payload[key], weight)
            for payload, weight in zip(payloads, level_weights)
            if key in payload
        ]
        first = values[0][0]
        if key in _VERBATIM_KEYS:
            merged[key] = list(first) if isinstance(first, list) else first
        elif key in _ELEMENTWISE_KEYS and isinstance(first, list):
            width = max(len(v) for v, _w in values if isinstance(v, list))
            summed = [0] * width
            for value, _weight in values:
                if isinstance(value, list):
                    for index, item in enumerate(value):
                        if isinstance(item, (int, float)):
                            summed[index] += item
            merged[key] = summed
        elif isinstance(first, bool):
            merged[key] = first
        elif isinstance(first, (int, float)):
            numbers = [
                (v, w) for v, w in values
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            ]
            if key in _MAX_KEYS:
                merged[key] = max(v for v, _w in numbers)
            elif key == "mean":
                weight_sum = sum(w for _v, w in numbers)
                merged[key] = (
                    round(sum(v * w for v, w in numbers) / weight_sum, 3)
                    if weight_sum > 0
                    else 0.0
                )
            else:
                merged[key] = sum(v for v, _w in numbers)
        elif isinstance(first, dict):
            merged[key] = _merge_numeric(
                [v for v, _w in values if isinstance(v, dict)],
                [w for v, w in values if isinstance(v, dict)],
            )
        else:
            merged[key] = first

    # A merged histogram is the one consistent source for its derived
    # fields: recompute mean and percentiles from the merged counts so
    # they cannot drift from the buckets a dashboard would plot.
    counts = merged.get("counts")
    if isinstance(counts, list) and "total" in merged:
        from .metrics import LATENCY_BUCKETS_MS, bucket_percentiles

        observations = sum(c for c in counts if isinstance(c, (int, float)))
        total = merged.get("total", 0.0)
        if isinstance(total, (int, float)):
            merged["mean"] = (
                round(total / observations, 3) if observations else 0.0
            )
        if "percentiles" in merged:
            merged["percentiles"] = bucket_percentiles(
                counts, LATENCY_BUCKETS_MS, float(merged.get("max", 0.0) or 0.0)
            )
    return merged


# ----------------------------------------------------------------------
# The asyncio HTTP frontend
# ----------------------------------------------------------------------

class PoolFrontend:
    """Parse/validate/route; never run a decision procedure locally."""

    def __init__(self, pool: CompilerPool, limits: ServiceLimits,
                 metrics: Optional[ServiceMetrics] = None):
        self.pool = pool
        self.limits = limits
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.metrics.mark_started(time.time())

    # -- connection loop ------------------------------------------------

    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            import socket as _socket

            sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
        try:
            while await self._serve_one(reader, writer):
                pass
        except (ConnectionClosed, asyncio.IncompleteReadError, OSError):
            pass  # the peer went away mid-request; no one left to answer
        except asyncio.CancelledError:
            pass  # shutdown cancels parked connections; close quietly
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> bool:
        """Answer one request; False once the connection must close."""
        head = RequestHead()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # the line overran the stream limit
                    raise head.line_too_long() from None
                if head.feed(line):
                    break
            head.frame(self.limits)
        except ServiceError as error:
            writer.write(head.reject(error, self.metrics))
            await writer.drain()
            return False
        if head.expect_continue:
            writer.write(CONTINUE)
        length = head.body_length
        body = await reader.readexactly(length) if length else b""
        status, payload = await self.dispatch(head.method, head.target, body)
        writer.write(head.response(status, payload))
        await writer.drain()
        return head.keep_alive

    # -- dispatch -------------------------------------------------------

    async def dispatch(self, method: str, target: str,
                       body: bytes) -> Tuple[int, bytes]:
        """One request in, ``(status, json_payload_bytes)`` out; no raise."""
        path = request_path(target)
        route = resolve(method, path)
        command = f"{method} {path}"
        started = time.perf_counter()
        try:
            if route.template == UNMATCHED:
                raise unmatched_error(method, path)
            status, payload = await self._dispatch(route, method, path, command, body)
        except ServiceError as error:
            status = error.status
            payload = encode(error_envelope(command, error))
        except Exception as error:  # noqa: BLE001 — frontend must not die
            mapped = as_service_error(error)
            status = mapped.status
            payload = encode(error_envelope(command, mapped))
        self.metrics.observe(route.template, status, time.perf_counter() - started)
        return status, payload

    async def _dispatch(self, route: Route, method: str, path: str,
                        command: str, body: bytes) -> Tuple[int, bytes]:
        template, fingerprint = route
        if template == "GET /healthz":
            return 200, encode(ok_envelope(command, self.healthz_payload()))
        if template == "GET /stats":
            merged = await self.pool.merged_stats()
            payload = {"service": self.metrics.snapshot(), **merged}
            payload["pool"]["mode"] = "pool"
            return 200, encode(ok_envelope(command, payload))
        if template == "GET /schemas":
            schemas = await self.pool.list_schemas()
            return 200, encode(ok_envelope(command, {"schemas": schemas}))
        if template == "POST /schemas":  # fingerprint to find the shard owner
            return await self._dispatch_register(body)
        if fingerprint is not None:
            return await self._dispatch_schema(template, fingerprint, method, path, body)
        # A POST route on a fixed path: the body names the schema.
        payload = _decode_json(body)
        fingerprint = payload.get("fingerprint")
        if isinstance(fingerprint, str) and fingerprint:
            worker_id = self.pool.route(fingerprint)
        else:
            # /evaluate without a schema, or an ill-shaped request the
            # worker rejects — any worker answers identically.
            worker_id = self.pool.any_worker()
        return await self.pool.request(worker_id, method, path, body)

    async def _dispatch_register(self, body: bytes) -> Tuple[int, bytes]:
        from .registry import parse_schema_text

        payload = _decode_json(body)
        text = payload.get("schema")
        syntax = payload.get("syntax", "scmdl")
        if isinstance(text, str) and text and isinstance(syntax, str):
            # Parse locally — this both validates at the edge (a parse
            # error never reaches a worker) and yields the fingerprint
            # that names the shard owner.
            schema = parse_schema_text(
                text, syntax=syntax, wrap=bool(payload.get("wrap", False))
            )
            fingerprint = schema.fingerprint()
            worker_id = self.pool.route(fingerprint)
        else:
            # Ill-shaped request: any worker renders the canonical 400.
            fingerprint = None
            worker_id = self.pool.any_worker()
        status, reply = await self.pool.request(worker_id, "POST", "/schemas", body)
        if status == 200 and fingerprint is not None:
            self.pool.pin(fingerprint, worker_id)
        return status, reply

    async def _dispatch_schema(self, template: str, fingerprint: str, method: str,
                               path: str, body: bytes) -> Tuple[int, bytes]:
        """A per-schema route, sent to the fingerprint's owner."""
        worker_id = self.pool.route(fingerprint)
        status, reply = await self.pool.request(worker_id, method, path, body)
        if status == 200 and template == DELETE_SCHEMA:
            self.pool.unpin(fingerprint)
        elif status == 200 and template == SCHEMA_MIGRATE:
            # An accepted migration re-keys the entry; keep routing the
            # new fingerprint to the worker that now holds it.
            try:
                envelope = json.loads(reply)
                result = envelope.get("result") or {}
                new_fingerprint = result.get("new_fingerprint")
                if result.get("accepted") and isinstance(new_fingerprint, str):
                    if new_fingerprint != fingerprint:
                        self.pool.pin(new_fingerprint, worker_id)
                        self.pool.unpin(fingerprint)
            except (ValueError, AttributeError):
                pass
        return status, reply

    def healthz_payload(self) -> dict:
        started = self.metrics.started_at()
        payload = {
            "status": "ok",
            "uptime_s": round(time.time() - started, 3) if started else 0.0,
            "mode": "pool",
        }
        payload.update(self.pool.describe())
        return payload


def _decode_json(body: bytes) -> Dict[str, Any]:
    """Frontend-side body validation, mirroring ``ServiceState._decode_body``."""
    if not body:
        raise ServiceError("request body must be a JSON object", code="bad-request")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(
            f"request body is not valid JSON: {error}", code="bad-request"
        ) from None
    if not isinstance(payload, dict):
        raise ServiceError("request body must be a JSON object", code="bad-request")
    return payload


# ----------------------------------------------------------------------
# The public service object
# ----------------------------------------------------------------------


class PoolService:
    """The pool-mode daemon: asyncio frontend + compiler pool.

    Interface-compatible with :class:`~repro.service.daemon.TypedQueryService`
    (``start``/``shutdown``/context manager, ``host``/``port``/``address``),
    so tests and benchmarks drive either tier through the same code.

    Without an explicit ``store_dir`` a private temporary store is
    created (and removed at shutdown): pool mode *requires* a store —
    it is how respawned workers come back warm.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        store_dir: Optional[str] = None,
        backend: Optional[str] = None,
        limits: Optional[ServiceLimits] = None,
        max_schemas: int = 64,
        engine_max_entries: Optional[int] = 4096,
    ):
        self._requested_host = host
        self._requested_port = port
        self._owns_store = store_dir is None
        if store_dir is None:
            store_dir = tempfile.mkdtemp(prefix="repro-pool-store-")
        self.store_dir = store_dir
        self.limits = limits if limits is not None else ServiceLimits()
        self.pool = CompilerPool(
            num_workers=workers,
            store_dir=store_dir,
            backend=backend,
            limits=self.limits,
            max_schemas=max_schemas,
            engine_max_entries=engine_max_entries,
        )
        self.frontend = PoolFrontend(self.pool, self.limits)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._host: Optional[str] = None
        self._port: Optional[int] = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "PoolService":
        self.pool.spawn_all()  # block here: serve only once workers are warm
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True, name="repro-pool-frontend"
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self._start_server(), self._loop)
        self._host, self._port = future.result(timeout=30)
        return self

    async def _start_server(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self.frontend.handle_connection,
            host=self._requested_host,
            port=self._requested_port,
            # readline() refuses a line past the limit, so this is the
            # framing layer's line cap (terminator included).
            limit=MAX_LINE_BYTES - 1,
            backlog=LISTEN_BACKLOG,
        )
        address = self._server.sockets[0].getsockname()
        return address[0], address[1]

    def shutdown(self) -> None:
        if self._loop is not None:
            if self._server is not None:
                async def close_server() -> None:
                    self._server.close()
                    await self._server.wait_closed()
                    # Idle keep-alive connections sit parked in
                    # ``readuntil``; cancel them so nothing survives
                    # into a closed loop.
                    current = asyncio.current_task()
                    pending = [
                        task for task in asyncio.all_tasks()
                        if task is not current and not task.done()
                    ]
                    for task in pending:
                        task.cancel()
                    if pending:
                        await asyncio.gather(*pending, return_exceptions=True)

                asyncio.run_coroutine_threadsafe(
                    close_server(), self._loop
                ).result(timeout=10)
                self._server = None
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=10)
                self._thread = None
            self._loop.close()
            self._loop = None
        self.pool.terminate_all()
        if self._owns_store:
            import shutil

            shutil.rmtree(self.store_dir, ignore_errors=True)

    def __enter__(self) -> "PoolService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- addressing -----------------------------------------------------

    @property
    def host(self) -> str:
        return self._host if self._host is not None else self._requested_host

    @property
    def port(self) -> int:
        return self._port if self._port is not None else self._requested_port

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- test/diagnostic bridge (callable from any thread) ---------------

    def submit(self, worker_id: int, message: tuple,
               timeout: Optional[float] = None):
        """Run one pool op from outside the loop thread; used by tests."""
        if self._loop is None:
            raise RuntimeError("service is not started")
        future = asyncio.run_coroutine_threadsafe(
            self.pool.call(worker_id, message, timeout), self._loop
        )
        return future.result()

    def serve_forever(self) -> None:
        """Blocking mode for the CLI: start, then wait for interrupt."""
        self.start()
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()


def serve_pool(
    host: str = "127.0.0.1",
    port: int = 8421,
    workers: int = 2,
    store_dir: Optional[str] = None,
    backend: Optional[str] = None,
    limits: Optional[ServiceLimits] = None,
    max_schemas: int = 64,
) -> None:
    """Blocking entry point used by ``repro serve --workers N``."""
    service = PoolService(
        host=host,
        port=port,
        workers=workers,
        store_dir=store_dir,
        backend=backend,
        limits=limits,
        max_schemas=max_schemas,
    )
    print(
        f"typed-query pool service: {workers} workers, store {service.store_dir}",
        flush=True,
    )
    service.start()
    print(f"typed-query service listening on {service.address}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
