"""Per-layer figures from the spans a traced server wrote (``launcher.py``).

Two scopes.  Request-path layers count spans whose request (the
enclosing ``daemon.handle`` span) started inside the timed window.
Registration-path layers — ``registry.register``, ``schema_parser``,
``engine.prewarm`` and ``automata.compile`` time per call — count every
span of the server's life, set-up included, because on ``serve-hot``
and ``serve-unique`` registration happens only in set-up.  A layer's
self time is its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from statistics import fmean
from typing import Dict, List, Optional, Tuple

#: Span names whose per-call time is taken over the server's whole life.
LIFE_SCOPE = ("registry.register", "schema_parser.parse", "engine.prewarm", "automata.compile")


def load(path) -> List[tuple]:
    with open(path) as handle:
        return [tuple(span) for span in json.load(handle)]


def _covered(interval: Tuple[float, float], children: List[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total, reach = 0.0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _ms_mean(values: List[float]) -> Optional[float]:
    return fmean(values) * 1000.0 if values else None


def layer_metrics(spans: List[tuple], window: Tuple[float, float]) -> Dict[str, Optional[float]]:
    """Per-layer figures; ``None`` where the layer was never called."""
    by_id = {span[0]: span for span in spans}
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)

    roots: Dict[int, Optional[int]] = {}

    def root_of(sid: int) -> Optional[int]:
        """The ``daemon.handle`` span at the top of ``sid``'s chain."""
        chain = []
        while sid not in roots:
            chain.append(sid)
            span = by_id.get(sid)
            if span is None or span[1] is None:
                top = sid if span is not None and span[2] == "daemon.handle" else None
                break
            sid = span[1]
        else:
            top = roots[sid]
        for node in chain:
            roots[node] = top
        return top

    lo, hi = window
    requests = {
        span[0] for span in spans if span[2] == "daemon.handle" and lo <= span[3] <= hi
    }
    in_window = defaultdict(list)
    whole_life = defaultdict(list)
    for span in spans:
        whole_life[span[2]].append(span)
        if root_of(span[0]) in requests:
            in_window[span[2]].append(span)

    def durations(name: str, scope=in_window) -> List[float]:
        return [span[4] - span[3] for span in scope[name]]

    def self_times(name: str) -> List[float]:
        return [
            (span[4] - span[3])
            - _covered((span[3], span[4]), [(c[3], c[4]) for c in children[span[0]]])
            for span in in_window[name]
        ]

    n_requests = len(requests)
    call_overhead = [
        (span[4] - span[3]) - sum(c[4] - c[3] for c in children[span[0]])
        for span in in_window["limits.call"]
    ]
    batches = in_window["batch.run"]
    puts = in_window["store.put"]
    metrics: Dict[str, Optional[float]] = {
        "daemon.self_ms_mean": _ms_mean(self_times("daemon.handle")),
        "limits.call_overhead_ms_mean": _ms_mean(call_overhead),
        "query_parser.ms_mean": _ms_mean(durations("query_parser.parse")),
        "query_parser.calls_per_req": (
            len(in_window["query_parser.parse"]) / n_requests if n_requests else None
        ),
        "automata.compile_calls": float(len(in_window["automata.compile"])),
        "typing.satisfiable_ms_mean": _ms_mean(durations("typing.satisfiable")),
        "typing.infer_ms_mean": _ms_mean(durations("typing.infer")),
        "typing.check_ms_mean": _ms_mean(durations("typing.check")),
        "eval.ms_mean": _ms_mean(durations("eval.evaluate")),
        "conformance.ms_mean": _ms_mean(durations("conformance.find_type_assignment")),
        "data_parser.ms_mean": _ms_mean(durations("data_parser.parse")),
        "batch.run_ms_mean": _ms_mean(durations("batch.run")),
        "batch.items_per_req": fmean(s[5] for s in batches) if batches else None,
        "store.get_ms_mean": _ms_mean(durations("store.get")),
        "store.put_ms_mean": _ms_mean(durations("store.put")),
        "store.bytes_written": float(sum(s[5] or 0 for s in puts)) if puts else None,
        "trace.spans": float(len(spans)),
    }
    for name, metric in zip(LIFE_SCOPE, (
        "registry.register_ms_mean",
        "schema_parser.ms_mean",
        "engine.prewarm_ms_mean",
        "automata.compile_ms_mean",
    )):
        metrics[metric] = _ms_mean(durations(name, whole_life))
    return metrics
