"""The replay load generator: drive a running daemon with domain traffic.

``repro replay`` (CLI) builds a :class:`ReplayConfig`, and
:func:`run_replay` does the rest: generate the domain corpora, register
their schemas, fan out worker threads in closed-loop (each thread issues
its next request as soon as the last returns) or open-loop mode (paced
arrivals at ``--rate`` rps, so queueing delay is visible instead of
being absorbed by back-pressure), record every sample client-side, then
snapshot the server's ``/stats``, assemble the report, write
``BENCH_replay.json``, and evaluate the SLO gate.

The ``cache-pressure`` scenario reads the registry LRU bound from
``/stats``, mints *more* distinct schemas than fit (via
:func:`repro.workloads.domains.pressure_variants`), and keeps traffic
uniform across all of them, so the registry continuously evicts and the
``unknown-schema`` 404s force re-registration — which reloads compiled
artifacts from the persistent store (`warm_from_store`) rather than
recompiling.  The report's ``cache_pressure`` block asserts the loop
actually happened: evictions observed, reloads performed, 5xx count.

All deadline arithmetic uses the monotonic clock; the wall clock appears
only in the human-facing ``started_unix`` stamp.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..service.client import ServiceClient
from ..workloads.domains import (
    DOMAIN_NAMES,
    DomainCorpus,
    domain_corpus,
    pressure_variants,
)
from .mix import TrafficMix, resolve_mix
from .report import ReplayRecorder
from .slo import SLOSpec, evaluate_slo, gate_exit_code

#: Rotation of item kinds a ``batch`` request cycles through.
_BATCH_KINDS: Tuple[str, ...] = ("satisfiable", "check", "evaluate")


@dataclass
class ReplayConfig:
    host: str = "127.0.0.1"
    port: int = 8421
    seed: int = 0
    duration_s: float = 10.0
    mix: str = "default"
    domains: Optional[Sequence[str]] = None
    concurrency: int = 4
    #: Target arrival rate in rps (None = closed loop).
    rate: Optional[float] = None
    scenario: str = "steady"
    slo: SLOSpec = field(default_factory=SLOSpec)
    output: Optional[str] = "BENCH_replay.json"
    #: Cache-pressure only: how many schemas beyond the LRU bound.
    pressure_overshoot: int = 8
    request_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive when given")
        if self.scenario not in ("steady", "cache-pressure"):
            raise ValueError(
                f"unknown scenario {self.scenario!r} "
                f"(expected 'steady' or 'cache-pressure')"
            )


class _Workload:
    """The registered corpora plus the seeded per-request draw logic."""

    def __init__(self, corpora: List[DomainCorpus]):
        if not corpora:
            raise ValueError("replay needs at least one domain corpus")
        self.corpora = corpora
        # Zipf mass: a domain's traffic share follows its query-pool size.
        self._cumulative: List[float] = []
        running = 0.0
        for corpus in corpora:
            running += float(len(corpus.queries))
            self._cumulative.append(running)

    def pick_corpus(self, rng) -> DomainCorpus:
        point = rng.random() * self._cumulative[-1]
        for index, bound in enumerate(self._cumulative):
            if point < bound:
                return self.corpora[index]
        return self.corpora[-1]


def _register_all(
    client: ServiceClient, corpora: Sequence[DomainCorpus]
) -> Dict[str, DomainCorpus]:
    """Register every corpus schema; returns fingerprint → corpus."""
    by_fingerprint: Dict[str, DomainCorpus] = {}
    for corpus in corpora:
        result = client.register_schema(corpus.schema_text)
        fingerprint = result["fingerprint"]
        if fingerprint != corpus.fingerprint:
            raise RuntimeError(
                f"fingerprint mismatch for domain {corpus.name!r}: "
                f"client computed {corpus.fingerprint}, server {fingerprint}"
            )
        by_fingerprint[fingerprint] = corpus
    return by_fingerprint


def _build_request(
    operation: str, corpus: DomainCorpus, rng
) -> Tuple[str, str, dict]:
    """One request as ``(endpoint, method_path, payload)``."""
    query = rng.choice(corpus.queries)
    if operation == "satisfiable":
        return "satisfiable", "/satisfiable", {
            "fingerprint": corpus.fingerprint,
            "query": query,
        }
    if operation == "check":
        check_query, assignment = rng.choice(corpus.checks)
        return "check", "/check", {
            "fingerprint": corpus.fingerprint,
            "query": check_query,
            "assignment": dict(assignment),
            "total": False,
        }
    if operation == "infer":
        return "infer", "/infer", {
            "fingerprint": corpus.fingerprint,
            "query": query,
            "limit": 4,
        }
    if operation == "evaluate":
        return "evaluate", "/evaluate", {
            "fingerprint": corpus.fingerprint,
            "query": query,
            "data": rng.choice(corpus.documents),
        }
    if operation == "batch":
        kind = _BATCH_KINDS[rng.randrange(len(_BATCH_KINDS))]
        if kind == "check":
            items = [
                {"query": check_query, "assignment": dict(assignment)}
                for check_query, assignment in corpus.checks[:3]
            ]
        elif kind == "evaluate":
            items = [
                {"query": query, "data": document}
                for document in corpus.documents[:2]
            ]
        else:
            items = [{"query": q} for q in corpus.queries[:3]]
        return "batch", "/batch", {
            "fingerprint": corpus.fingerprint,
            "operation": kind,
            "items": items,
        }
    raise ValueError(f"unknown replay operation {operation!r}")


def _issue(
    client: ServiceClient,
    endpoint: str,
    path: str,
    payload: dict,
    corpus: DomainCorpus,
    recorder: ReplayRecorder,
) -> None:
    """Send one request, recording latency/status; reload on eviction.

    An ``unknown-schema`` 404 means the registry LRU evicted this
    fingerprint (expected under cache pressure): re-register — the
    server restores compiled artifacts from its store — and retry once.
    Both attempts are recorded; transport failures record status ``-1``.
    """
    for attempt in (0, 1):
        started = time.perf_counter()
        try:
            status, envelope = client.request("POST", path, payload)
        except Exception:  # noqa: BLE001 — any transport failure
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            recorder.record(endpoint, corpus.name, -1, elapsed_ms)
            return
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        recorder.record(endpoint, corpus.name, status, elapsed_ms)
        error = envelope.get("error") or {}
        if (
            attempt == 0
            and status == 404
            and error.get("code") == "unknown-schema"
        ):
            try:
                client.register_schema(corpus.schema_text)
            except Exception:  # noqa: BLE001 — count and give up
                return
            recorder.reloads += 1
            continue
        return


def _worker(
    config: ReplayConfig,
    workload: _Workload,
    mix: TrafficMix,
    worker_id: int,
    deadline: float,
    recorder: ReplayRecorder,
) -> None:
    import random

    rng = random.Random(f"replay:{config.seed}:{worker_id}")
    client = ServiceClient(config.host, config.port, timeout=config.request_timeout)
    interval = (
        config.concurrency / config.rate if config.rate is not None else None
    )
    next_arrival = time.monotonic()
    try:
        while True:
            now = time.monotonic()
            if now >= deadline:
                break
            if interval is not None:
                if now < next_arrival:
                    time.sleep(min(next_arrival - now, deadline - now))
                    if time.monotonic() >= deadline:
                        break
                # If we fell behind by several intervals, skip forward
                # rather than bursting to catch up.
                next_arrival = max(next_arrival + interval, time.monotonic())
            corpus = workload.pick_corpus(rng)
            operation = mix.pick(rng)
            endpoint, path, payload = _build_request(operation, corpus, rng)
            _issue(client, endpoint, path, payload, corpus, recorder)
    finally:
        client.close()


def run_replay(config: ReplayConfig) -> Tuple[int, dict]:
    """Run one replay; returns ``(gate_exit_code, report)``.

    Writes the report to ``config.output`` (unless ``None``).
    """
    mix = resolve_mix(config.mix)
    client = ServiceClient(config.host, config.port, timeout=config.request_timeout)
    stats_before = client.stats()

    if config.scenario == "cache-pressure":
        bound = int(stats_before["registry"]["max_schemas"])
        count = bound + max(1, config.pressure_overshoot)
        corpora = pressure_variants(
            count, seed=config.seed, names=config.domains
        )
    else:
        corpora = domain_corpus(seed=config.seed, names=config.domains)
    by_fingerprint = _register_all(client, corpora)
    workload = _Workload(list(by_fingerprint.values()))

    recorders = [ReplayRecorder() for _ in range(config.concurrency)]
    started_unix = time.time()  # human-facing stamp only
    started = time.monotonic()
    deadline = started + config.duration_s
    threads = [
        threading.Thread(
            target=_worker,
            args=(config, workload, mix, worker_id, deadline, recorder),
            name=f"replay-{worker_id}",
            daemon=True,
        )
        for worker_id, recorder in enumerate(recorders)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed_s = max(time.monotonic() - started, 1e-9)

    merged = ReplayRecorder()
    for recorder in recorders:
        merged.merge(recorder)
    stats_after = client.stats()
    client.close()

    report = _build_report(
        config, mix, corpora, merged, elapsed_s, started_unix,
        stats_before, stats_after,
    )
    violations = evaluate_slo(config.slo, report)
    exit_code = gate_exit_code(violations, report)
    report["slo"] = {
        "thresholds": config.slo.as_dict(),
        "violations": violations,
        "exit_code": exit_code,
    }
    if config.output:
        with open(config.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return exit_code, report


def _build_report(
    config: ReplayConfig,
    mix: TrafficMix,
    corpora: List[DomainCorpus],
    merged: ReplayRecorder,
    elapsed_s: float,
    started_unix: float,
    stats_before: dict,
    stats_after: dict,
) -> dict:
    registry_before = stats_before.get("registry") or {}
    registry_after = stats_after.get("registry") or {}
    totals = merged.totals_block(elapsed_s)
    report = {
        "kind": "replay",
        "started_unix": round(started_unix, 3),
        "duration_s": round(elapsed_s, 3),
        "config": {
            "host": config.host,
            "port": config.port,
            "seed": config.seed,
            "requested_duration_s": config.duration_s,
            "mix": {"name": mix.name, "weights": mix.as_dict()},
            "concurrency": config.concurrency,
            "rate": config.rate,
            "loop": "open" if config.rate is not None else "closed",
            "scenario": config.scenario,
            "domains": sorted({corpus.name for corpus in corpora}),
            "schemas": len(corpora),
        },
        "totals": totals,
        "endpoints": merged.endpoints_block(elapsed_s),
        "domains": merged.domains_block(elapsed_s),
        "server": {
            "endpoints": (stats_after.get("service") or {}).get("endpoints", {}),
            "registry": registry_after,
        },
    }
    if config.scenario == "cache-pressure":
        evictions = int(registry_after.get("evicted", 0)) - int(
            registry_before.get("evicted", 0)
        )
        store_hits = int(registry_after.get("store_hits", 0)) - int(
            registry_before.get("store_hits", 0)
        )
        report["cache_pressure"] = {
            "registered": len(corpora),
            "lru_bound": int(registry_before.get("max_schemas", 0)),
            "evictions": evictions,
            "store_hits": store_hits,
            "reloads": totals.get("reloads", 0),
            "errors_5xx": totals.get("errors_5xx", 0),
        }
    return report
