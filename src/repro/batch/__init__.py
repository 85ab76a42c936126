"""Bulk-decision pipeline: one compiled schema, many inputs.

The paper's decision procedures are cheap once their per-schema
artifacts (alphabet, inhabited types, content NFAs, reachability) exist;
what dominates corpus-scale use is recompiling those artifacts per call.
This package amortizes that cost: a :class:`BatchPlan` names one
operation, one schema, and many items; :func:`run_batch` compiles once
and decides the items in a loop on the calling thread, or over a process
pool that ships the compiled schema once per worker.

Surfaced as ``repro batch`` (NDJSON in, NDJSON envelopes out) and as the
service's ``POST /batch`` endpoint.
"""

from .executors import (
    EXECUTORS,
    BatchResult,
    chunk_indexed,
    default_workers,
    run_batch,
    run_items_process,
    run_items_shared,
)
from .plan import (
    MALFORMED_KEY,
    OPERATIONS,
    BatchPlan,
    compile_schema,
    item_envelope,
    read_ndjson,
    results_to_ndjson,
    run_item,
    summarize,
)

__all__ = [
    "BatchPlan",
    "BatchResult",
    "EXECUTORS",
    "MALFORMED_KEY",
    "OPERATIONS",
    "chunk_indexed",
    "compile_schema",
    "default_workers",
    "item_envelope",
    "read_ndjson",
    "results_to_ndjson",
    "run_batch",
    "run_item",
    "run_items_process",
    "run_items_shared",
    "summarize",
]
