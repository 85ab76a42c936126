"""The repository benchmark: ``repro serve`` driven over loopback HTTP.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Starts the threaded server as a separate process, registers the
workload's schemas, warms up, then drives it for ``--seconds`` from
closed-loop clients (each waits for its reply) and checks the answers
against reference answers computed in this process.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` adds a second server
started through ``launcher.py`` and reports the per-layer metrics.
Human-readable lines go first; the last line of standard output is one
JSON object.  Exit status 1 on a wrong answer, a failed request or a
broken workload guard.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from harness import (
    HASH_SEED,
    ROOT,
    SCRUBBED_ENV,
    SRC,
    Client,
    Server,
    ServerError,
    TransportError,
    hermetic_env,
)

HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench-work"
#: At most this many sampled answers per operation are checked per phase.
VERIFY_CAP = 150
#: Client-side rates and latencies are measured per slice of the window.
SLICES = 8
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5

#: ``(name, unit)`` of the metrics the JSON line carries: those every
#: workload produces (see README.md for the workload-specific ones).
END_TO_END = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("satisfiable_p50_ms", "ms"),
    ("server_peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("transport.overhead_p50_ms", "ms"),
    ("daemon.handle_ms_mean", "ms"),
    ("daemon.self_ms_mean", "ms"),
    ("server.cpu_ms_per_req", "ms"),
    ("server.busy_share", "ratio"),
    ("client.cpu_ms_per_req", "ms"),
    ("limits.call_overhead_ms_mean", "ms"),
    ("registry.memo_hit_ratio", "ratio"),
    ("registry.register_ms_mean", "ms"),
    ("registry.evictions", "count"),
    ("schema_parser.ms_mean", "ms"),
    ("engine.prewarm_ms_mean", "ms"),
    ("engine.hit_ratio", "ratio"),
    ("engine.compiled_path_misses", "count"),
    ("automata.compile_ms_mean", "ms"),
    ("automata.compile_calls", "count"),
    ("query_parser.ms_mean", "ms"),
    ("query_parser.calls_per_req", "count"),
    ("trace.throughput_ratio", "ratio"),
]
#: Printed when the workload produces them; not in the JSON line.
EXTRA_UNITS = {
    "latency_p99_ms": "ms",
    "error_rate": "ratio",
    "batch_items_per_s": "1/s",
    "register_p99_ms": "ms",
    "registry.store_hit_ratio": "ratio",
    "store.puts": "count",
    "store.hits": "count",
    "store.bytes_written": "bytes",
    "batch.items_per_req": "count",
    "trace.spans": "count",
}


class BenchmarkFailure(RuntimeError):
    """The benchmark could not measure (server down, setup rejected)."""


# ----------------------------------------------------------------------
# Driving the server
# ----------------------------------------------------------------------


class Tally:
    """Everything sent in a phase, for correctness and the guards."""

    def __init__(self):
        self.sent: List[tuple] = []  # (request, status, raw body)
        self.problems: List[str] = []

    def add(self, records) -> None:
        self.sent.extend((record[0], record[1], record[3]) for record in records)


def closed_loop(clients, streams, seconds: float):
    """Each client sends its stream's next request once the last returns.

    Returns ``(records, started, finished, errors)``; a record is
    ``(request, status, latency_s, raw body, completed at)``, status -1
    on transport failure.
    """
    deadline = time.monotonic() + seconds
    results: List[Optional[list]] = [None] * len(clients)
    errors: List[str] = []

    def work(index: int) -> None:
        client, stream, records = clients[index], streams[index], []
        try:
            while time.monotonic() < deadline:
                request = next(stream)
                started = time.perf_counter()
                try:
                    status, raw = client.send_wire(request.wire)
                except TransportError as error:
                    status, raw = -1, repr(error).encode()
                records.append(
                    (request, status, time.perf_counter() - started, raw, time.monotonic())
                )
        except Exception as error:  # noqa: BLE001 — reported as a failure
            errors.append(f"client {index}: {error!r}")
        results[index] = records

    # Daemon threads: a terminated run must not wait out the window.
    threads = [
        threading.Thread(target=work, args=(i,), daemon=True) for i in range(len(clients))
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    finished = time.monotonic()
    return [r for records in results for r in records or ()], started, finished, errors


def register_all(port: int, workload) -> None:
    client = Client(port)
    try:
        for text, fingerprint in workload.schemas:
            status, envelope = client.call("POST", "/schemas", {"schema": text})
            got = (envelope.get("result") or {}).get("fingerprint")
            if status != 200 or got != fingerprint:
                raise BenchmarkFailure(
                    f"registration answered {status} with fingerprint {got!r}, "
                    f"expected {fingerprint}"
                )
    finally:
        client.close()


def get_stats(port: int) -> dict:
    client = Client(port)
    try:
        status, envelope = client.call("GET", "/stats")
    finally:
        client.close()
    if status != 200:
        raise BenchmarkFailure(f"/stats answered {status}")
    return envelope["result"]


def start_server(workload, workdir: Path, tag: str, traced: bool) -> tuple:
    """Start and set up one server; returns ``(server, setup seconds)``."""
    args = workload.server_args()
    if workload.uses_store:
        store = workdir / f"{tag}-store"
        shutil.rmtree(store, ignore_errors=True)
        args += ["--cache-dir", str(store)]
    spans = workdir / f"{tag}-spans.json"
    started = time.monotonic()
    server = Server(
        args,
        workdir / f"{tag}-server.log",
        launcher=HERE / "launcher.py" if traced else None,
        spans_path=spans,
    )
    try:
        server.wait_ready()
        register_all(server.port, workload)
    except BaseException:
        server.stop()
        raise
    return server, time.monotonic() - started


def run_phase(workload, workdir: Path, seconds: float, traced: bool, setups: int) -> dict:
    """Set up ``setups`` times (keeping the last server), warm up, measure."""
    tag = "traced" if traced else "plain"
    setup_times = []
    for attempt in range(setups):
        server, elapsed = start_server(workload, workdir, f"{tag}{attempt}", traced)
        setup_times.append(elapsed)
        if attempt < setups - 1:
            server.stop()
    tally = Tally()
    with server:
        clients = [Client(server.port) for _ in range(workload.connections)]
        try:
            control = Client(server.port)
            try:
                for request in workload.prime_requests():
                    status, raw = control.send_wire(request.wire)
                    tally.sent.append((request, status, raw))
            finally:
                control.close()
            streams = workload.streams()
            records, _, _, errors = closed_loop(clients, streams, workload.warmup_seconds)
            tally.add(records)
            tally.problems += errors

            before = get_stats(server.port)
            cpu0, client_cpu0 = server.cpu_seconds(), time.process_time()
            records, started, finished, errors = closed_loop(clients, streams, seconds)
            server_cpu = server.cpu_seconds() - cpu0
            client_cpu = time.process_time() - client_cpu0
            after = get_stats(server.port)
            rss = server.peak_rss_mb()
            tally.add(records)
            tally.problems += errors
        finally:
            for client in clients:
                client.close()
    return {
        "setup_times": setup_times,
        "records": records,
        "window": (started, finished),
        "server_cpu": server_cpu,
        "client_cpu": client_cpu,
        "stats": (before, after),
        "rss_mb": rss,
        "tally": tally,
        "spans_path": server.spans_path if traced else None,
    }


# ----------------------------------------------------------------------
# Checking answers
# ----------------------------------------------------------------------


def check_answers(workload, tally: Tally) -> Dict[str, int]:
    """Count failed requests (non-2xx, transport, wrong answer) in ``tally``.

    Every ``verify`` request is compared with the reference answer,
    capped at :data:`VERIFY_CAP` distinct keys per operation.
    """
    import traffic

    oracle = workload.oracle()
    expected: Dict[tuple, object] = {}
    per_op: Dict[str, int] = {}
    failed = wrong = server_errors = verified = 0
    for request, status, raw in tally.sent:
        if status >= 500:
            server_errors += 1
        if not 200 <= status < 300:
            failed += 1
            if len(tally.problems) < 20:
                tally.problems.append(f"{request.method} {request.path}: {status} {raw[:200]!r}")
            continue
        if not request.verify:
            continue
        if request.key not in expected:
            if per_op.get(request.op, 0) >= VERIFY_CAP:
                continue
            per_op[request.op] = per_op.get(request.op, 0) + 1
            expected[request.key] = oracle.expected(
                request.op, request.fingerprint, request.payload
            )
        verified += 1
        try:
            result = json.loads(raw)["result"]
            answer = traffic.canonical(request.op, result, request.payload)
        except (ValueError, KeyError, TypeError):
            answer = None
        if answer != expected[request.key]:
            wrong += 1
            failed += 1
            if len(tally.problems) < 20:
                tally.problems.append(
                    f"wrong answer to {request.op} {request.payload}: "
                    f"got {answer!r}, expected {expected[request.key]!r}"
                )
    return {
        "attempted": len(tally.sent),
        "failed": failed,
        "wrong": wrong,
        "server_errors": server_errors,
        "verified": verified,
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def _counter_deltas(before: dict, after: dict) -> dict:
    """Window deltas of the registry, engine, memo and store counters.

    Engine counters live per resident schema; an entry evicted inside
    the window takes its counts with it, and one re-created inside the
    window counts from zero.
    """
    reg0, reg1 = before["registry"], after["registry"]
    totals = dict.fromkeys(
        ("hits", "misses", "path_misses", "memo_hits", "memo_misses"), 0
    )
    zero = {"hits": 0, "misses": 0, "by_kind": {}, "decisions": {"hits": 0, "misses": 0}}
    for fp, now in reg1["engines"].items():
        then = reg0["engines"].get(fp, zero)
        if now["hits"] < then["hits"] or now["misses"] < then["misses"]:
            then = zero
        totals["hits"] += now["hits"] - then["hits"]
        totals["misses"] += now["misses"] - then["misses"]
        path_now = now["by_kind"].get("compiled-path", {}).get("misses", 0)
        path_then = then["by_kind"].get("compiled-path", {}).get("misses", 0)
        totals["path_misses"] += max(0, path_now - path_then)
        totals["memo_hits"] += max(0, now["decisions"]["hits"] - then["decisions"]["hits"])
        totals["memo_misses"] += max(
            0, now["decisions"]["misses"] - then["decisions"]["misses"]
        )
    store0, store1 = reg0.get("store") or {}, reg1.get("store") or {}
    return {
        **totals,
        "evictions": (reg1["evicted"] - reg0["evicted"])
        - (reg1["unregistered"] - reg0["unregistered"]),
        "registered": reg1["registered"] - reg0["registered"],
        "store_hits": reg1["store_hits"] - reg0["store_hits"],
        "store_puts": store1.get("puts", 0) - store0.get("puts", 0),
        "store_reads": store1.get("hits", 0) - store0.get("hits", 0),
    }


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def best_quartile(name: str, values: List[float]) -> float:
    """Upper quartile of a rate, lower quartile of a latency."""
    if len(values) < 2:
        return values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low if name.endswith("_ms") else high


def slice_metrics(records: list, seconds: float) -> Dict[str, float]:
    """Client-side rates and latencies of the records of one time slice."""
    latency: Dict[str, List[float]] = {}
    items = batch_time = 0.0
    completed = 0
    for request, status, elapsed, _raw, _done in records:
        latency.setdefault(request.op, []).append(elapsed * 1000.0)
        if 200 <= status < 300:
            completed += 1
            if request.op == "batch":
                items += len(request.payload["items"])
                batch_time += elapsed
    every = [ms for values in latency.values() for ms in values]
    metrics = {
        "throughput_rps": completed / seconds,
        "latency_p50_ms": statistics.median(every),
        "latency_p99_ms": percentile(every, 0.99),
    }
    for op, values in latency.items():
        metrics[f"{op}_p50_ms"] = statistics.median(values)
    if batch_time:
        metrics["batch_items_per_s"] = items / batch_time
    return metrics


def phase_metrics(phase: dict) -> tuple:
    """``(end-to-end metrics, per-layer metrics, guard inputs, samples
    per slice)`` of a phase.

    Client-side rates and latencies are measured on each of
    :data:`SLICES` equal slices of the window, and the best quartile is
    reported: the upper quartile of the slices' rates and the lower
    quartile of their latencies.  Other tenants of a shared machine only
    ever slow a slice down, so the best quartile follows the code under
    test rather than the neighbours.
    """
    records = phase["records"]
    started, finished = phase["window"]
    wall = finished - started
    slices: List[list] = [[] for _ in range(SLICES)]
    for record in records:
        slices[min(int((record[4] - started) / wall * SLICES), SLICES - 1)].append(record)
    per_slice = [slice_metrics(part, wall / SLICES) for part in slices if part]
    e2e = {
        name: best_quartile(name, [m[name] for m in per_slice if name in m])
        for name in {name for m in per_slice for name in m}
    }
    registers = [r[2] * 1000.0 for r in records if r[0].op == "register"]
    if registers:  # too few per slice for a p99: the whole window's
        e2e["register_p99_ms"] = percentile(registers, 0.99)
    e2e["setup_s"] = statistics.median(phase["setup_times"])
    e2e["server_peak_rss_mb"] = phase["rss_mb"]
    overhead, handle = [], []
    for _request, status, elapsed, raw, _done in records:
        if 200 <= status < 300:
            elapsed_ms = json.loads(raw)["meta"]["elapsed_ms"]
            overhead.append(elapsed * 1000.0 - elapsed_ms)
            handle.append(elapsed_ms)
    deltas = _counter_deltas(*phase["stats"])
    n = len(records)
    layers = {
        "transport.overhead_p50_ms": statistics.median(overhead),
        "daemon.handle_ms_mean": statistics.fmean(handle),
        "server.cpu_ms_per_req": phase["server_cpu"] * 1000.0 / n,
        "server.busy_share": phase["server_cpu"] / wall,
        "client.cpu_ms_per_req": phase["client_cpu"] * 1000.0 / n,
        "registry.memo_hit_ratio": _ratio(
            deltas["memo_hits"], deltas["memo_hits"] + deltas["memo_misses"]
        ) or 0.0,
        "registry.evictions": float(deltas["evictions"]),
        "registry.store_hit_ratio": _ratio(deltas["store_hits"], deltas["registered"]),
        "engine.hit_ratio": _ratio(deltas["hits"], deltas["hits"] + deltas["misses"]) or 0.0,
        "engine.compiled_path_misses": float(deltas["path_misses"]),
    }
    if phase["stats"][1]["registry"].get("store"):
        layers["store.puts"] = float(deltas["store_puts"])
        layers["store.hits"] = float(deltas["store_reads"])
    window = {
        "memo_hit_ratio": layers["registry.memo_hit_ratio"],
        "memo_hits": deltas["memo_hits"],
        "keys": [sent[0].key for sent in phase["tally"].sent],
        "store.puts": deltas["store_puts"],
        "store.hits": deltas["store_reads"],
        "registry.evictions": deltas["evictions"],
    }
    return e2e, layers, window, min(len(part) for part in slices)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-hot", "serve-unique", "schema-churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _show(name: str, value, unit: str, note: str = "") -> None:
    if value is None:
        return
    print(f"  {name:34s} {value:14.6g} {unit}{note}")


def measure(args, workdir: Path) -> int:
    import traffic

    workload = traffic.WORKLOADS[args.workload](args.seed)
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    plain = run_phase(workload, workdir, args.seconds, traced=False,
                      setups=1 if args.trace else SETUPS)
    phases = [plain]
    if args.trace:
        phases.append(run_phase(workload, workdir, args.seconds, traced=True, setups=1))

    counts = {"attempted": 0, "failed": 0, "wrong": 0, "server_errors": 0, "verified": 0}
    for phase in phases:
        for key, value in check_answers(workload, phase["tally"]).items():
            counts[key] += value
    e2e, layers, window, samples = phase_metrics(plain)
    e2e["error_rate"] = counts["failed"] / counts["attempted"]
    guards = workload.guards(window)
    guards.append(("zero 5xx", counts["server_errors"] == 0, str(counts["server_errors"])))
    if args.trace:
        import tracing

        traced = phases[1]
        traced_e2e = phase_metrics(traced)[0]
        layers.update(tracing.layer_metrics(tracing.load(traced["spans_path"]), traced["window"]))
        layers["trace.throughput_ratio"] = traced_e2e["throughput_rps"] / e2e["throughput_rps"]

    units = dict(END_TO_END + PER_LAYER, **EXTRA_UNITS)
    print("end-to-end:")
    for name in sorted(e2e):
        note = ""
        if name == "latency_p99_ms":
            note = f"  (lower quartile of {SLICES} slices, >= {samples} requests each)"
        elif name == "register_p99_ms":
            note = f"  (n={sum(1 for r in plain['records'] if r[0].op == 'register')})"
        _show(name, e2e[name], units.get(name, "ms"), note)
    print("per-layer:" if args.trace else "per-layer (counters, envelope, /proc):")
    for name in sorted(layers):
        _show(name, layers[name], units.get(name, "ms"))
    print(f"requests: attempted={counts['attempted']} failed={counts['failed']} "
          f"wrong={counts['wrong']} verified={counts['verified']}")
    for name, held, detail in guards:
        print(f"guard: {'ok  ' if held else 'FAIL'} {name} ({detail})")
    problems = [p for phase in phases for p in phase["tally"].problems]
    for problem in problems[:20]:
        print(f"problem: {problem}")

    chosen = PER_LAYER if args.trace else END_TO_END
    values = e2e if not args.trace else layers
    missing = [name for name, _ in chosen if values.get(name) is None]
    if missing:
        problems.append(f"metrics not produced: {missing}")
        print(f"problem: metrics not produced: {missing}")
    correct = counts["failed"] == 0 and all(held for _, held, _ in guards) and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in chosen if values.get(name) is not None
        },
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    # Let a terminated run unwind, so its server is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED or any(
        name in os.environ for name in SCRUBBED_ENV
    ):
        # Re-run under the pinned hash seed and the scrubbed environment.
        os.execve(sys.executable, [sys.executable, __file__, *argv], hermetic_env())
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    except (BenchmarkFailure, ServerError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
