"""Run ``repro serve`` with timing wrappers around each layer.

Usage: ``python launcher.py SPANS_FILE serve [repro serve flags...]``
(with ``src`` on ``PYTHONPATH``).  Before the CLI starts the server,
each layer's public functions are rebound, in the modules that import
them, to wrappers that record a span: ``(id, parent id, name, start,
end, attribute)`` on the monotonic clock.  Spans are kept in memory,
nested under the ``ServiceState.handle`` span of their request (also
across the deadline runner's compute thread and the batch fan-out
threads), and written to SPANS_FILE as JSON when the server stops
(SIGINT).  The benchmark reads them back with ``tracing.py``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

_SPANS: list = []
_ids = itertools.count(1)
_local = threading.local()
#: id(batch item) -> the batch span, so fan-out threads nest under it.
_item_parents: dict = {}


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _open():
    stack = _stack()
    parent = stack[-1] if stack else None
    sid = next(_ids)
    stack.append(sid)
    return sid, parent, time.monotonic()


def _close(sid, parent, name, start, attr=None) -> None:
    end = time.monotonic()
    stack = _stack()
    if stack and stack[-1] == sid:
        stack.pop()
    elif sid in stack:  # a generator span closed out of order
        stack.remove(sid)
    _SPANS.append((sid, parent, name, start, end, attr))


def timed(name, fn, attr=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent, start = _open()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            _close(sid, parent, name, start, attr(args, result) if attr else None)

    return wrapper


def timed_generator(name, fn):
    """Time a generator function across its whole iteration."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent, start = _open()
        try:
            yield from fn(*args, **kwargs)
        finally:
            _close(sid, parent, name, start)

    return wrapper


def _runner_call(original):
    """``DeadlineRunner.call``: the computation runs on a fresh thread,
    recorded as a ``limits.compute`` child of the ``limits.call`` span."""

    @functools.wraps(original)
    def call(self, fn, deadline_s):
        sid, parent, start = _open()

        def compute():
            _local.stack = [sid]
            csid, cparent, cstart = _open()
            try:
                return fn()
            finally:
                _close(csid, cparent, "limits.compute", cstart)

        try:
            return original(self, compute, deadline_s)
        finally:
            _close(sid, parent, "limits.call", start)

    return call


def _batch_run(original):
    @functools.wraps(original)
    def run_items_shared(operation, schema, engine, items, *args, **kwargs):
        sid, parent, start = _open()
        for item in items:
            _item_parents[id(item)] = sid
        try:
            return original(operation, schema, engine, items, *args, **kwargs)
        finally:
            for item in items:
                _item_parents.pop(id(item), None)
            _close(sid, parent, "batch.run", start, len(items))

    return run_items_shared


def _batch_item(original):
    @functools.wraps(original)
    def item_envelope(index, operation, schema, engine, item):
        stack = _stack()
        if stack:  # the single-thread loop: already nested
            return original(index, operation, schema, engine, item)
        stack.append(_item_parents.get(id(item)))
        try:
            return original(index, operation, schema, engine, item)
        finally:
            stack.pop()

    return item_envelope


def _put_attr(_args, path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


#: (module, attribute, span name, attribute recorder) — functions are
#: rebound in the module that calls them; ``Class.method`` patches the class.
_DECISION_CALLERS = ("repro.service.daemon", "repro.batch.plan")
PATCHES = [
    ("repro.service.daemon", "ServiceState.handle", "daemon.handle", None),
    ("repro.service.registry", "SchemaRegistry.register", "registry.register", None),
    ("repro.service.registry", "parse_schema_text", "schema_parser.parse", None),
    ("repro.service.registry", "prewarm", "engine.prewarm", None),
    ("repro.engine.core", "compile_nfa", "automata.compile", None),
    ("repro.engine.store", "ArtifactStore.get", "store.get", None),
    ("repro.engine.store", "ArtifactStore.put", "store.put", _put_attr),
] + [
    (module, attribute, name, None)
    for module in _DECISION_CALLERS
    for attribute, name in (
        ("parse_query", "query_parser.parse"),
        ("is_satisfiable", "typing.satisfiable"),
        ("check_types", "typing.check"),
        ("check_total_types", "typing.check"),
        ("evaluate", "eval.evaluate"),
        ("find_type_assignment", "conformance.find_type_assignment"),
        ("parse_data", "data_parser.parse"),
    )
]


def install() -> None:
    for module_name, attribute, name, attr in PATCHES:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, timed(name, getattr(owner, leaf), attr))
    for module_name in _DECISION_CALLERS:
        module = importlib.import_module(module_name)
        module.iterate_inferred_types = timed_generator(
            "typing.infer", module.iterate_inferred_types
        )
    limits = importlib.import_module("repro.service.limits")
    limits.DeadlineRunner.call = _runner_call(limits.DeadlineRunner.call)
    batch = importlib.import_module("repro.batch")
    batch.run_items_shared = _batch_run(batch.run_items_shared)
    executors = importlib.import_module("repro.batch.executors")
    executors.item_envelope = _batch_item(executors.item_envelope)


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    install()
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        spans = list(_SPANS)
        tmp = spans_path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(spans, handle)
        os.replace(tmp, spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
