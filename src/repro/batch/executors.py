"""Batch executors: an in-process loop and a process pool.

Two ways to drive a :class:`~repro.batch.plan.BatchPlan`:

* ``sequential`` — compile once, then decide the items in order on the
  calling thread (:func:`run_items_shared`).  ``POST /batch`` and the
  migration analysis run the same loop over the registry's already-warm
  engine.  The decision procedures are pure Python and hold the GIL, so
  spreading items over threads would buy no parallelism.
* ``process`` — compile once in the parent, then ship the *compiled
  artifact* (schema plus minimized transition tables, as one versioned
  pickle payload; see :mod:`repro.engine.artifact`) to each worker via
  the pool initializer.  Workers unpickle dense integer arrays instead
  of re-parsing schema text and re-running the compile pipeline; items
  then pay pickling for their JSON dicts only.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..cancellation import current_deadline, raise_if_cancelled
from ..engine import Engine, EngineArtifact
from ..schema import Schema
from .plan import BatchPlan, item_envelope, summarize

#: The executor names :func:`run_batch` accepts.
EXECUTORS: Tuple[str, ...] = ("sequential", "process")


def default_workers() -> int:
    """A safe worker count for this host (bounded, never zero)."""
    return max(1, min(4, os.cpu_count() or 1))


def chunk_indexed(
    items: Sequence[Any], workers: int, chunk_size: Optional[int] = None
) -> List[List[Tuple[int, Any]]]:
    """Split ``items`` into index-tagged chunks for the process pool.

    Each element is ``(original_index, item)`` so results can be placed
    back in input order no matter which worker process decided them.
    The automatic chunk size aims for ~8 chunks per worker: large enough
    to amortize per-chunk dispatch, small enough that one slow chunk
    cannot strand the pool's tail.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(items) / (workers * 8)))
    elif chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    indexed = list(enumerate(items))
    return [indexed[i : i + chunk_size] for i in range(0, len(indexed), chunk_size)]


# ----------------------------------------------------------------------
# In-process execution, in order on the calling thread
# ----------------------------------------------------------------------


def run_items_shared(
    operation: str,
    schema: Optional[Schema],
    engine: Engine,
    items: Sequence[Any],
) -> List[dict]:
    """Decide ``items`` in order on the calling thread over one engine.

    Returns per-item envelopes in input order.  This is the loop the
    ``sequential`` executor, ``POST /batch`` (with the registry's
    engine) and the migration analysis share.

    The caller's deadline (see :mod:`repro.cancellation`) is
    polled before each item and after the last; once it has passed
    this call raises :class:`~repro.cancellation.Cancelled` rather than
    return a partial result.
    """
    deadline = current_deadline()
    envelopes = []
    for index, item in enumerate(items):
        raise_if_cancelled(deadline)
        envelopes.append(item_envelope(index, operation, schema, engine, item))
    # item_envelope turns an item's Cancelled into an error envelope;
    # a cancelled last item must not pass for a finished result.
    raise_if_cancelled(deadline)
    return envelopes


# ----------------------------------------------------------------------
# Process-pool execution (compiled artifacts shipped once per worker)
# ----------------------------------------------------------------------

#: Per-worker-process state set up by :func:`_process_init`.
_WORKER: dict = {}


def _process_init(operation: str, payload) -> None:
    """Pool initializer: install the parent's compiled artifact.

    ``payload`` is one of:

    * ``None`` — the schema-less ``evaluate`` operation;
    * ``bytes`` — an :class:`~repro.engine.EngineArtifact` payload: the
      schema plus the parent's compiled tables, so the worker unpickles
      dense integer arrays instead of re-parsing schema text and
      re-running the compile pipeline from scratch;
    * a ``dict`` — a *store reference* ``{"cache_dir", "fingerprint",
      "schema_text", "syntax", "wrap"}``: the parent persisted the
      artifact once into an on-disk :class:`~repro.engine.ArtifactStore`
      and every worker loads it from there, so N workers cost one write
      plus N reads instead of N pickled payloads over the pipe.  A store
      miss (racing eviction, corrupt blob) falls back to compiling from
      the carried schema text — slower, never wrong.
    """
    if payload is None:
        schema: Optional[Schema] = None
        engine = Engine()
    elif isinstance(payload, dict):
        from ..engine import ArtifactStore

        store = ArtifactStore(root=payload["cache_dir"])
        artifact = store.get(payload["fingerprint"])
        if artifact is not None:
            engine = artifact.install()
            schema = artifact.schema
        else:
            from .plan import compile_schema

            schema, engine = compile_schema(
                payload["schema_text"], payload["syntax"], payload["wrap"]
            )
    else:
        artifact = EngineArtifact.from_bytes(payload)
        engine = artifact.install()
        schema = artifact.schema
    _WORKER["operation"] = operation
    _WORKER["schema"] = schema
    _WORKER["engine"] = engine


def _process_chunk(chunk: List[Tuple[int, Any]]) -> List[dict]:
    """Decide one index-tagged chunk inside a worker process."""
    return [
        item_envelope(
            index, _WORKER["operation"], _WORKER["schema"], _WORKER["engine"], item
        )
        for index, item in chunk
    ]


def run_items_process(
    plan: BatchPlan,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    store=None,
) -> List[dict]:
    """Decide the plan's items across a process pool, in input order.

    The schema is parsed and compiled once in the parent — a syntax
    error must surface as this call's exception, not as an opaque
    ``BrokenProcessPool`` from a dying initializer — and the compiled
    artifacts reach each worker either as one explicit pickle payload or,
    with a ``store`` (an :class:`~repro.engine.ArtifactStore`), as a
    fingerprint the workers load from disk: the artifact is written once
    and shared by every worker instead of pickled per worker.  (The
    explicit ``to_bytes`` round-trip also holds under the ``fork`` start
    method, where initargs would otherwise reach workers by memory
    inheritance and never exercise pickling.)
    """
    # Imported here, not at module level: the daemon imports this package,
    # and concurrent.futures.process would load multiprocessing into it.
    from concurrent.futures import ProcessPoolExecutor

    schema, engine = plan.compile()
    payload = None
    if schema is not None:
        artifact = EngineArtifact.capture(engine, schema, plan.syntax)
        if store is not None:
            store.put(artifact)
            payload = {
                "cache_dir": str(store.root),
                "fingerprint": artifact.fingerprint(),
                "schema_text": plan.schema_text,
                "syntax": plan.syntax,
                "wrap": plan.wrap,
            }
        else:
            payload = artifact.to_bytes()
    workers = workers or default_workers()
    chunks = chunk_indexed(plan.items, workers, chunk_size)
    results: List[Optional[dict]] = [None] * len(plan.items)
    with ProcessPoolExecutor(
        max_workers=min(workers, len(chunks)),
        initializer=_process_init,
        initargs=(plan.operation, payload),
    ) as pool:
        for envelopes in pool.map(_process_chunk, chunks):
            for envelope in envelopes:
                results[envelope["index"]] = envelope
    return [envelope for envelope in results if envelope is not None]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


@dataclass
class BatchResult:
    """Per-item envelopes (input order) plus the aggregate summary."""

    results: List[dict]
    summary: dict


def run_batch(
    plan: BatchPlan,
    executor: str = "sequential",
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    store=None,
) -> BatchResult:
    """Run ``plan`` under the named executor and summarize the outcome.

    ``workers``, ``chunk_size`` and ``store`` (an
    :class:`~repro.engine.ArtifactStore`) only affect the ``process``
    executor; with a store its workers load the compiled artifact from
    disk instead of receiving pickled bytes apiece.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r} (expected one of {', '.join(EXECUTORS)})"
        )
    started = time.perf_counter()
    if executor == "process":
        results = run_items_process(
            plan, workers=workers, chunk_size=chunk_size, store=store
        )
    else:
        schema, engine = plan.compile()
        results = run_items_shared(plan.operation, schema, engine, plan.items)
    elapsed = time.perf_counter() - started
    return BatchResult(
        results=results,
        summary=summarize(plan.operation, executor, results, elapsed),
    )
