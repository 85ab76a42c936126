"""Bulk-decision plans: one compiled schema, many inputs, one operation.

A :class:`BatchPlan` is the unit of corpus-scale work: the schema text is
parsed and pre-warmed **once** (per process, per worker), and every item
then pays only its own decision — the per-call process/request overhead
that dominates one-shot CLI and HTTP usage of the paper's PTIME
algorithms disappears.  The plan carries:

* ``operation`` — one decision procedure from Section 3 / Definition 2.x
  of Milo & Suciu (see :data:`OPERATIONS`);
* ``schema_text`` — ScmDL or DTD source, compiled once per executor
  worker (``evaluate`` is the one schema-optional operation);
* ``items`` — JSON objects, one decision each, with operation-specific
  fields (``query``, ``data``/``xml``, ``pins``, ``assignment``,
  ``limit``, ``total``).

:func:`run_item` is the one operation table: the daemon decides its
single-request endpoints (``/satisfiable``, ``/check``, ``/infer``,
``/classify``, and ``/validate`` as ``conforms``) through it too, so a
request body and the same ``/batch`` item are decoded by the same field
helpers and get the same answer.

Per-item failures are **isolated**: :func:`item_envelope` renders every
outcome as ``{"index", "ok", "result", "error"}`` using the same error
codes as the service envelopes, so one malformed input never fails the
batch.  :func:`summarize` aggregates the envelopes into the summary the
CLI prints and the benchmark records.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..data import from_xml, parse_data
from ..engine import Engine, prewarm, resolve_backend
from ..query import evaluate, parse_query
from ..schema import Schema, find_type_assignment, parse_dtd, parse_schema
from ..service.envelope import (
    ServiceError,
    as_service_error,
    bool_field,
    positive_int_field,
)
from ..typing import check_total_types, check_types, classify, is_satisfiable
from ..typing.inference import iterate_inferred_types

#: The decision procedures a batch may run, one per plan.
OPERATIONS: Tuple[str, ...] = (
    "conforms",
    "satisfiable",
    "check",
    "infer",
    "classify",
    "evaluate",
)


class _MalformedLine:
    """What :func:`read_ndjson` puts in place of a line that is not JSON.

    The item then fails with a per-item ``bad-request`` envelope instead
    of aborting the whole batch.  No JSON value is an instance of this
    class, so no client field can pass for such a line.
    """

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message


@dataclass(frozen=True)
class BatchPlan:
    """One operation over many items against one (optional) schema.

    Raises:
        ValueError: on an unknown operation, an empty item list, or a
            missing schema for a schema-requiring operation (``evaluate``
            is the only operation that may run schema-less).
    """

    operation: str
    items: Tuple[Any, ...]
    schema_text: Optional[str] = None
    syntax: str = "scmdl"
    wrap: bool = False
    #: Automata backend for the plan's engines (None = env / default).
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.operation not in OPERATIONS:
            raise ValueError(
                f"unknown batch operation {self.operation!r} "
                f"(expected one of {', '.join(OPERATIONS)})"
            )
        if self.backend is not None:
            resolve_backend(self.backend)  # validate eagerly
        if not self.items:
            raise ValueError("a batch plan needs at least one item")
        if self.schema_text is None and self.operation != "evaluate":
            raise ValueError(
                f"operation {self.operation!r} needs a schema "
                f"('evaluate' is the only schema-optional operation)"
            )
        if self.syntax not in ("scmdl", "dtd"):
            raise ValueError(
                f"unknown schema syntax {self.syntax!r} (expected 'scmdl' or 'dtd')"
            )

    def compile(self) -> Tuple[Optional[Schema], Engine]:
        """Parse the schema and pre-warm a fresh engine for it.

        This is the once-per-plan cost every item then shares; the
        process executor runs it in the parent and ships the captured
        compiled artifacts to its workers (see
        :func:`repro.batch.executors.run_items_process`).
        """
        return compile_schema(self.schema_text, self.syntax, self.wrap, self.backend)


def compile_schema(
    schema_text: Optional[str],
    syntax: str = "scmdl",
    wrap: bool = False,
    backend: Optional[str] = None,
) -> Tuple[Optional[Schema], Engine]:
    """Parse ``schema_text`` and pre-warm a dedicated engine for it."""
    engine = Engine(backend=backend)
    if schema_text is None:
        return None, engine
    if syntax == "dtd":
        schema = parse_dtd(schema_text, wrap=wrap)
    else:
        schema = parse_schema(schema_text)
    prewarm(schema, engine)
    return schema, engine


# ----------------------------------------------------------------------
# Per-item execution
# ----------------------------------------------------------------------


def run_item(
    operation: str, schema: Optional[Schema], engine: Engine, item: Any
) -> dict:
    """Run one decision; returns the operation's result payload.

    Raises :class:`ServiceError` (or a parse error) on a bad item — the
    caller maps it to a per-item error envelope, or the daemon to the
    request's error response.
    """
    if operation not in OPERATIONS:
        raise ServiceError(
            f"unknown batch operation {operation!r}", code="bad-request"
        )
    if isinstance(item, _MalformedLine):
        raise ServiceError(
            f"item is not valid JSON: {item.message}", code="bad-request"
        )
    if not isinstance(item, dict):
        raise ServiceError("batch item must be a JSON object", code="bad-request")
    if schema is None and operation != "evaluate":
        raise ServiceError(
            f"operation {operation!r} needs a schema", code="bad-request"
        )
    return _HANDLERS[operation](schema, engine, item)


def string_field(item: Dict[str, Any], field: str) -> str:
    """The required non-empty string field ``field``."""
    value = item.get(field)
    if not isinstance(value, str) or not value:
        raise ServiceError(f"{field!r} must be a non-empty string", code="bad-request")
    return value


def query_field(item: Dict[str, Any]):
    """The parsed ``query`` field."""
    return parse_query(string_field(item, "query"))


def pins_field(item: Dict[str, Any], field: str = "pins") -> Dict[str, str]:
    """The optional ``pins`` (or ``assignment``) map; absent is ``{}``."""
    pins = item.get(field) or {}
    if not isinstance(pins, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in pins.items()
    ):
        raise ServiceError(
            f"{field!r} must map variable names to type/label strings",
            code="bad-request",
        )
    return pins


def graph_field(item: Dict[str, Any]):
    """The parsed data graph: ``xml`` if it is a string, else ``data``."""
    if isinstance(item.get("xml"), str):
        return from_xml(item["xml"])
    if isinstance(item.get("data"), str):
        return parse_data(item["data"])
    raise ServiceError(
        "a data graph is required: a string field 'data' (Table-1 text) or 'xml'",
        code="bad-request",
    )


def decision_key(operation: str, item: Dict[str, Any]) -> tuple:
    """The fields a ``satisfiable`` or ``infer`` result depends on, validated.

    The daemon memoizes these two decisions per registered schema under
    this key, and checks the key's fields before the memo lookup, so a
    malformed request is rejected whether or not the memo would answer.
    """
    text = string_field(item, "query")
    key = (operation, text, tuple(sorted(pins_field(item).items())))
    if operation == "infer":
        key += (positive_int_field(item, "limit"),)
    return key


def _op_conforms(schema: Schema, engine: Engine, item: Dict[str, Any]) -> dict:
    graph = graph_field(item)
    assignment = find_type_assignment(graph, schema, engine)
    return {
        "valid": assignment is not None,
        "assignment": dict(assignment) if assignment is not None else None,
    }


def _op_satisfiable(schema: Schema, engine: Engine, item: Dict[str, Any]) -> dict:
    query = query_field(item)
    pins = pins_field(item)
    return {"satisfiable": bool(is_satisfiable(query, schema, pins or None, engine))}


def _op_check(schema: Schema, engine: Engine, item: Dict[str, Any]) -> dict:
    query = query_field(item)
    assignment = pins_field(item, "assignment")
    total = bool_field(item, "total")
    checker = check_total_types if total else check_types
    try:
        verdict = checker(query, schema, assignment, engine)
    except ValueError as error:
        # check_types/check_total_types validate the assignment shape.
        raise ServiceError(str(error), code="bad-request") from None
    return {"well_typed": bool(verdict), "total": total}


def _op_infer(schema: Schema, engine: Engine, item: Dict[str, Any]) -> dict:
    query = query_field(item)
    pins = pins_field(item)
    limit = positive_int_field(item, "limit")
    assignments: List[dict] = []
    for pins_out in iterate_inferred_types(query, schema, pins or None, engine):
        assignments.append(dict(pins_out))
        if limit is not None and len(assignments) >= limit:
            break
    return {
        "assignments": assignments,
        "count": len(assignments),
        "truncated": limit is not None and len(assignments) == limit,
    }


def _op_classify(schema: Schema, engine: Engine, item: Dict[str, Any]) -> dict:
    cell = classify(query_field(item), schema)
    result = dataclasses.asdict(cell)
    result["polynomial"] = cell.polynomial
    return result


def _op_evaluate(
    schema: Optional[Schema], engine: Engine, item: Dict[str, Any]
) -> dict:
    query = query_field(item)
    graph = graph_field(item)
    limit = positive_int_field(item, "limit")
    bindings = evaluate(query, graph, limit=limit, engine=engine)
    return {"bindings": bindings, "count": len(bindings)}


_HANDLERS = {
    "conforms": _op_conforms,
    "satisfiable": _op_satisfiable,
    "check": _op_check,
    "infer": _op_infer,
    "classify": _op_classify,
    "evaluate": _op_evaluate,
}


def item_envelope(
    index: int,
    operation: str,
    schema: Optional[Schema],
    engine: Engine,
    item: Any,
) -> dict:
    """One item's outcome as a JSON-able ``ok``/``error`` envelope."""
    try:
        result = run_item(operation, schema, engine, item)
    except Exception as exc:  # noqa: BLE001 — per-item isolation
        error = as_service_error(exc)
        return {"index": index, "ok": False, "result": None, "error": error.to_error()}
    return {"index": index, "ok": True, "result": result, "error": None}


# ----------------------------------------------------------------------
# Aggregation and NDJSON framing
# ----------------------------------------------------------------------


def summarize(
    operation: str, executor: str, results: List[dict], elapsed_s: float
) -> dict:
    """The aggregate the CLI prints and ``bench_batch`` records."""
    error_codes: Dict[str, int] = {}
    for envelope in results:
        if not envelope["ok"]:
            code = envelope["error"]["code"]
            error_codes[code] = error_codes.get(code, 0) + 1
    errors = sum(error_codes.values())
    return {
        "operation": operation,
        "executor": executor,
        "items": len(results),
        "ok": len(results) - errors,
        "errors": errors,
        "error_codes": error_codes,
        "elapsed_s": round(elapsed_s, 6),
        "items_per_s": round(len(results) / elapsed_s, 2) if elapsed_s > 0 else None,
    }


def read_ndjson(text: str) -> List[Any]:
    """Parse NDJSON input: one JSON value per line, blank lines skipped.

    Lines that fail to parse become marker items (:class:`_MalformedLine`)
    so they surface as per-item ``bad-request`` envelopes rather than
    failing the batch — the error-isolation contract.
    """
    items: List[Any] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            items.append(json.loads(line))
        except json.JSONDecodeError as error:
            items.append(_MalformedLine(str(error)))
    return items


def results_to_ndjson(results: List[dict]) -> str:
    """Render per-item envelopes as NDJSON (one envelope per line)."""
    return "".join(json.dumps(envelope) + "\n" for envelope in results)
